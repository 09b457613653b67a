# Docs drift check, run as a ctest (`ctest -L docs`):
#
#   cmake -DREADME=<README.md> -DSRC_DIR=<src> -DSUITE_COUNT=<n> \
#         -DBENCH_LISTS=<bench/CMakeLists.txt> -P docs_consistency.cmake
#
# Fails when README.md disagrees with the code on
#  * the "N GTest suites" count (SUITE_COUNT = pairs in PARMVN_TEST_SUITES);
#  * the "N bench drivers" count vs. the entries of PARMVN_BENCHES in
#    BENCH_LISTS;
#  * the fault-site table of the "Failure model & degradation ladder"
#    section vs. the PARMVN_FAULT_POINT("...") literals in src/**/*.cpp;
#  * the names in the "Runtime environment knobs:" paragraph vs. the
#    "PARMVN_..." string literals in src/**/*.{cpp,hpp} (the variables the
#    library reads);
#  * the `src/<dir>` lines of the "## Layout" code block vs. the
#    subdirectories of SRC_DIR (a deleted module still listed, or a new one
#    left out).
cmake_minimum_required(VERSION 3.20)

foreach(_var README SRC_DIR SUITE_COUNT BENCH_LISTS)
  if(NOT DEFINED ${_var})
    message(FATAL_ERROR "docs_consistency: -D${_var}=... is required")
  endif()
endforeach()

file(READ "${README}" _readme)
set(_errors "")

# ---- suite count
string(REGEX MATCH "([0-9]+) GTest suites" _m "${_readme}")
if(NOT _m)
  string(APPEND _errors "\n  README has no \"N GTest suites\" count")
elseif(NOT CMAKE_MATCH_1 EQUAL SUITE_COUNT)
  string(APPEND _errors
         "\n  README says ${CMAKE_MATCH_1} GTest suites; "
         "PARMVN_TEST_SUITES has ${SUITE_COUNT}")
endif()

# ---- bench driver count: entries of set(PARMVN_BENCHES ...)
file(READ "${BENCH_LISTS}" _bench_lists)
string(REGEX MATCH "set\\(PARMVN_BENCHES([^)]*)\\)" _m "${_bench_lists}")
if(NOT _m)
  string(APPEND _errors "\n  ${BENCH_LISTS} has no set(PARMVN_BENCHES ...)")
else()
  string(REGEX MATCHALL "[A-Za-z0-9_]+" _benches "${CMAKE_MATCH_1}")
  list(LENGTH _benches _bench_count)
  string(REGEX MATCH "([0-9]+) bench drivers" _m "${_readme}")
  if(NOT _m)
    string(APPEND _errors "\n  README has no \"N bench drivers\" count")
  elseif(NOT CMAKE_MATCH_1 EQUAL _bench_count)
    string(APPEND _errors
           "\n  README says ${CMAKE_MATCH_1} bench drivers; "
           "PARMVN_BENCHES has ${_bench_count}")
  endif()
endif()

# ---- fault-site table: rows "| `site` | ..." of the failure-model section
set(_heading "## Failure model & degradation ladder")
string(FIND "${_readme}" "${_heading}" _begin)
if(_begin EQUAL -1)
  string(APPEND _errors "\n  README has no \"${_heading}\" section")
  set(_section "")
else()
  string(SUBSTRING "${_readme}" ${_begin} -1 _section)
  string(LENGTH "${_heading}" _skip)
  string(SUBSTRING "${_section}" ${_skip} -1 _rest)
  string(FIND "${_rest}" "\n## " _end)
  if(NOT _end EQUAL -1)
    string(SUBSTRING "${_rest}" 0 ${_end} _rest)
  endif()
  set(_section "${_rest}")
endif()
string(REGEX MATCHALL "\n\\| `[^`]+` \\|" _rows "${_section}")
set(_documented "")
foreach(_row IN LISTS _rows)
  string(REGEX REPLACE "\n\\| `([^`]+)` \\|" "\\1" _site "${_row}")
  list(APPEND _documented "${_site}")
endforeach()

file(GLOB_RECURSE _sources "${SRC_DIR}/*.cpp")
set(_coded "")
foreach(_file IN LISTS _sources)
  file(READ "${_file}" _text)
  string(REGEX MATCHALL "PARMVN_FAULT_POINT\\(\"[^\"]+\"\\)" _hits "${_text}")
  foreach(_hit IN LISTS _hits)
    string(REGEX REPLACE "PARMVN_FAULT_POINT\\(\"([^\"]+)\"\\)" "\\1" _site
                         "${_hit}")
    list(APPEND _coded "${_site}")
  endforeach()
endforeach()
list(REMOVE_DUPLICATES _coded)

foreach(_site IN LISTS _coded)
  if(NOT _site IN_LIST _documented)
    string(APPEND _errors "\n  fault site `${_site}` is missing from the README table")
  endif()
endforeach()
foreach(_site IN LISTS _documented)
  if(NOT _site IN_LIST _coded)
    string(APPEND _errors "\n  README lists fault site `${_site}`, which no src/*.cpp defines")
  endif()
endforeach()

# ---- environment knobs: `PARMVN_...` names of the knob paragraph
string(REGEX MATCH "Runtime environment knobs:[^\n]*(\n[^\n]+)*" _knob_par
       "${_readme}")
if(NOT _knob_par)
  string(APPEND _errors "\n  README has no \"Runtime environment knobs:\" paragraph")
endif()
string(REGEX MATCHALL "`PARMVN_[A-Z0-9_]+`" _hits "${_knob_par}")
set(_knobs_documented "")
foreach(_hit IN LISTS _hits)
  string(REPLACE "`" "" _knob "${_hit}")
  list(APPEND _knobs_documented "${_knob}")
endforeach()

file(GLOB_RECURSE _knob_sources "${SRC_DIR}/*.cpp" "${SRC_DIR}/*.hpp")
set(_knobs_coded "")
foreach(_file IN LISTS _knob_sources)
  file(READ "${_file}" _text)
  string(REGEX MATCHALL "\"PARMVN_[A-Z0-9_]+\"" _hits "${_text}")
  foreach(_hit IN LISTS _hits)
    string(REPLACE "\"" "" _knob "${_hit}")
    list(APPEND _knobs_coded "${_knob}")
  endforeach()
endforeach()
list(REMOVE_DUPLICATES _knobs_coded)

foreach(_knob IN LISTS _knobs_coded)
  if(NOT _knob IN_LIST _knobs_documented)
    string(APPEND _errors "\n  src/ reads `${_knob}`, which README's knob paragraph omits")
  endif()
endforeach()
foreach(_knob IN LISTS _knobs_documented)
  if(NOT _knob IN_LIST _knobs_coded)
    string(APPEND _errors "\n  README lists knob `${_knob}`, which no src/ file reads")
  endif()
endforeach()

# ---- module layout: "src/<dir>" lines of the Layout code block
string(REGEX MATCH "\n## Layout\n+```\n([^`]*)```" _m "${_readme}")
set(_hits "")
if(NOT _m)
  string(APPEND _errors "\n  README has no \"## Layout\" code block")
else()
  string(REGEX MATCHALL "(^|\n)src/[A-Za-z0-9_]+" _hits "${CMAKE_MATCH_1}")
endif()
set(_dirs_documented "")
foreach(_hit IN LISTS _hits)
  string(REGEX REPLACE "^\n?src/" "" _dir "${_hit}")
  list(APPEND _dirs_documented "${_dir}")
endforeach()

file(GLOB _entries LIST_DIRECTORIES true RELATIVE "${SRC_DIR}" "${SRC_DIR}/*")
set(_dirs_coded "")
foreach(_entry IN LISTS _entries)
  if(IS_DIRECTORY "${SRC_DIR}/${_entry}")
    list(APPEND _dirs_coded "${_entry}")
  endif()
endforeach()

foreach(_dir IN LISTS _dirs_coded)
  if(NOT _dir IN_LIST _dirs_documented)
    string(APPEND _errors "\n  src/${_dir} is missing from README's Layout block")
  endif()
endforeach()
foreach(_dir IN LISTS _dirs_documented)
  if(NOT _dir IN_LIST _dirs_coded)
    string(APPEND _errors "\n  README's Layout block lists src/${_dir}, which does not exist")
  endif()
endforeach()

if(_errors)
  message(FATAL_ERROR "README.md disagrees with the code:${_errors}")
endif()
list(LENGTH _coded _nsites)
list(LENGTH _knobs_coded _nknobs)
list(LENGTH _dirs_coded _ndirs)
message(STATUS "docs_consistency: ${SUITE_COUNT} GTest suites, "
               "${_bench_count} bench drivers, ${_nsites} fault sites, "
               "${_nknobs} environment knobs, ${_ndirs} src modules")

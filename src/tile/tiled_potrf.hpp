// Tiled Cholesky factorization (right-looking) over the task runtime —
// step (a) of the paper's Algorithm 1 in its dense form.
#pragma once

#include "tile/tile_matrix.hpp"

namespace parmvn::tile {

/// Lower Cholesky of a lower-symmetric tiled SPD matrix, in place: on
/// return the lower tiles hold L. Submits the full task DAG
/// (POTRF/TRSM/SYRK/GEMM per tile) and waits for completion.
/// Throws parmvn::Error if a diagonal block is not positive definite.
void potrf_tiled(rt::Runtime& rt, TileMatrix& a);

/// Result of the safeguarded dense factorization (mirror of
/// tlr::PotrfTlrInfo so the two arms report the same way).
struct PotrfTiledInfo {
  int retries = 0;          // diagonal-boost retries that were needed
  double diag_boost = 0.0;  // total boost added to every diagonal entry
};

/// potrf_tiled with the TLR arm's bounded diagonal-boost retry ladder
/// (linalg/jitter.hpp): on a non-PD pivot the matrix is restored from a
/// dense backup, a boost starting at machine epsilon of the diagonal scale
/// (and quadrupling per retry) is added to the diagonal, and the
/// factorization reruns. Throws once `max_retries` restarts are exhausted.
/// With max_retries == 0 this is exactly potrf_tiled (no backup is taken,
/// results bitwise identical). Opt in through FactorSpec::jitter_retries.
PotrfTiledInfo potrf_tiled_safeguarded(rt::Runtime& rt, TileMatrix& a,
                                       int max_retries);

}  // namespace parmvn::tile

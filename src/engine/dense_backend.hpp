// Dense-tiled factor backend: a thin adapter exposing tile::TileMatrix
// through the FactorBackend sweep vocabulary (per-pair update tasks).
#pragma once

#include <memory>
#include <utility>

#include "engine/factor_backend.hpp"
#include "tile/tile_matrix.hpp"

namespace parmvn::engine {

class DenseBackend final : public FactorBackend {
 public:
  explicit DenseBackend(std::shared_ptr<const tile::TileMatrix> l)
      : l_(std::move(l)) {
    PARMVN_EXPECTS(l_ != nullptr);
    PARMVN_EXPECTS(l_->layout() == tile::Layout::kLowerSymmetric);
  }

  [[nodiscard]] FactorKind kind() const noexcept override {
    return FactorKind::kDense;
  }
  [[nodiscard]] i64 dim() const noexcept override { return l_->rows(); }
  [[nodiscard]] i64 tile_size() const noexcept override {
    return l_->tile_size();
  }
  [[nodiscard]] i64 row_tiles() const noexcept override {
    return l_->row_tiles();
  }
  [[nodiscard]] i64 tile_rows(i64 r) const noexcept override {
    return l_->tile_rows(r);
  }

  void apply_update(i64 i, i64 r, la::ConstMatrixView y, la::MatrixView mean,
                    double beta) const override;
  void chain_step(i64 r, const stats::PointSet& pts, i64 col0,
                  std::span<const double> a, std::span<const double> b,
                  la::ConstMatrixView mean, la::MatrixView y, double* p,
                  double* prefix_acc) const override;

  double ep_row(i64 k,
                std::vector<std::pair<i64, double>>& parents) const override;

  [[nodiscard]] const tile::TileMatrix& matrix() const noexcept { return *l_; }

 private:
  std::shared_ptr<const tile::TileMatrix> l_;
};

}  // namespace parmvn::engine

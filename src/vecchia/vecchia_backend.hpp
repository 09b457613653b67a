// FactorBackend adapter for the Vecchia factor (cross-tile contributions
// folded into the chain task).
#pragma once

#include <memory>
#include <utility>

#include "engine/factor_backend.hpp"
#include "vecchia/vecchia_factor.hpp"

namespace parmvn::vecchia {

class VecchiaBackend final : public engine::FactorBackend {
 public:
  explicit VecchiaBackend(std::shared_ptr<const VecchiaFactor> v)
      : v_(std::move(v)) {
    PARMVN_EXPECTS(v_ != nullptr);
  }

  [[nodiscard]] engine::FactorKind kind() const noexcept override {
    return engine::FactorKind::kVecchia;
  }
  [[nodiscard]] i64 dim() const noexcept override { return v_->dim(); }
  [[nodiscard]] i64 tile_size() const noexcept override {
    return v_->tile_size();
  }
  [[nodiscard]] i64 row_tiles() const noexcept override {
    return v_->row_tiles();
  }
  [[nodiscard]] i64 tile_rows(i64 r) const noexcept override {
    return v_->tile_rows(r);
  }

  [[nodiscard]] bool pair_update_tasks() const noexcept override {
    return false;  // cross-tile weights fold into the chain task
  }

  void accumulate_external(i64 r,
                           std::span<const la::ConstMatrixView> y_panels,
                           i64 row_off, i64 nrows,
                           la::MatrixView mean_tile) const override;
  void chain_step(i64 r, const stats::PointSet& pts, i64 col0,
                  std::span<const double> a, std::span<const double> b,
                  la::ConstMatrixView mean, la::MatrixView y, double* p,
                  double* prefix_acc) const override;

  [[nodiscard]] bool ep_latent_slots() const noexcept override {
    return false;  // slots are earlier coordinates, not latent innovations
  }
  double ep_row(i64 k,
                std::vector<std::pair<i64, double>>& parents) const override;

  [[nodiscard]] const VecchiaFactor& factor() const noexcept { return *v_; }

 private:
  std::shared_ptr<const VecchiaFactor> v_;
};

}  // namespace parmvn::vecchia

#include "core/estimator.hpp"

#include <stdexcept>

namespace stkde {

Result Estimator::run(const PointSet& points, const DomainSpec& dom) const {
  dom.validate();
  using core::run_pb;
  switch (algorithm_) {
    case Algorithm::kVB:
      return core::run_vb(points, dom, params_);
    case Algorithm::kVBDec:
      return core::run_vb_dec(points, dom, params_);
    case Algorithm::kPB:
      return core::run_pb(points, dom, params_);
    case Algorithm::kPBDisk:
      return core::run_pb_disk(points, dom, params_);
    case Algorithm::kPBBar:
      return core::run_pb_bar(points, dom, params_);
    case Algorithm::kPBSym:
      return core::run_pb_sym(points, dom, params_);
    case Algorithm::kPBTile:
      return core::run_pb_tile(points, dom, params_);
    case Algorithm::kPBSymDR:
      return core::run_pb_sym_dr(points, dom, params_);
    case Algorithm::kPBSymDD:
      return core::run_pb_sym_dd(points, dom, params_);
    case Algorithm::kPBSymPD:
    case Algorithm::kPBSymPDSched:
    case Algorithm::kPBSymPDRep:
    case Algorithm::kPBSymPDSchedRep:
      return core::run_pb_sym_pd(points, dom, params_, algorithm_);
  }
  throw std::invalid_argument("Estimator: unknown algorithm");
}

Result estimate(const PointSet& points, const DomainSpec& dom,
                const Params& params, Algorithm algorithm) {
  return Estimator(algorithm, params).run(points, dom);
}

}  // namespace stkde

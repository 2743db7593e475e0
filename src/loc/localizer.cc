#include "loc/localizer.h"

namespace abp {

LocalizationResult CentroidLocalizer::localize(Vec2 point) const {
  const ConnectedSum cs = kernel_.evaluate_point(point);
  if (cs.count == 0) return {fallback_, 0};
  return {cs.sum / static_cast<double>(cs.count), cs.count};
}

}  // namespace abp

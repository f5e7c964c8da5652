#include "core/options.h"

namespace tj {

Status ValidateOptions(const DiscoveryOptions& options) {
  if (options.max_placeholders < 1) {
    return Status::InvalidArgument(
        "DiscoveryOptions::max_placeholders must be >= 1");
  }
  if (options.max_placeholders > 16) {
    // 2^p tokenization growth: anything past this is a typo, not a setting.
    return Status::InvalidArgument(
        "DiscoveryOptions::max_placeholders must be <= 16");
  }
  if (options.max_transformations_per_row == 0) {
    return Status::InvalidArgument(
        "DiscoveryOptions::max_transformations_per_row must be >= 1");
  }
  if (options.max_units_per_placeholder == 0) {
    return Status::InvalidArgument(
        "DiscoveryOptions::max_units_per_placeholder must be >= 1");
  }
  if (!(options.min_support_fraction >= 0.0) ||
      !(options.min_support_fraction <= 1.0)) {
    return Status::InvalidArgument(
        "DiscoveryOptions::min_support_fraction must be in [0, 1]");
  }
  return Status::OK();
}

}  // namespace tj

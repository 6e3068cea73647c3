#include "nand/geometry.h"

#include "common/check.h"

namespace ppssd::nand {

Geometry::Geometry(const GeometryConfig& cfg, double slc_ratio) : cfg_(cfg) {
  planes_ = cfg.planes();
  chips_ = cfg.chips();
  PPSSD_CHECK_MSG(cfg.total_blocks % planes_ == 0,
                  "total_blocks must divide evenly across planes");
  planes_per_chip_ = cfg.dies_per_chip * cfg.planes_per_die;
  blocks_per_plane_ = cfg.total_blocks / planes_;
  slc_blocks_per_plane_ = cfg.slc_blocks_per_plane(slc_ratio);
  PPSSD_CHECK_MSG(slc_blocks_per_plane_ < blocks_per_plane_,
                  "slc_ratio leaves no MLC blocks");
  logical_subpages_ = cfg.logical_subpages(slc_ratio);
  PPSSD_CHECK(logical_subpages_ > 0);
}

}  // namespace ppssd::nand

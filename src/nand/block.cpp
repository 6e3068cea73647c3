#include "nand/block.h"

#include "common/check.h"

namespace ppssd::nand {

Block::Block(CellMode mode, std::uint32_t pages,
             std::uint32_t subpages_per_page)
    : mode_(mode),
      level_(mode == CellMode::kMlc ? BlockLevel::kHighDensity
                                    : BlockLevel::kWork),
      page_count_(pages),
      subpages_per_page_(subpages_per_page) {
  PPSSD_CHECK(pages > 0);
  // SsdConfig::validate bounds the subpages per page, with a message.
  PPSSD_DCHECK(subpages_per_page >= 1 &&
               subpages_per_page <= kMaxSubpagesPerPage);
}

void Block::erase(SimTime now) {
  frontier_ = 0;
  valid_ = 0;
  invalid_ = 0;
  sum_write_time_ms_ = 0;
  ++erase_count_;
  last_erase_time_ = now;
}

}  // namespace ppssd::nand

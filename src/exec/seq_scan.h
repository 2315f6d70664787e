// Sequential scan over a base table's heap: serial, or one worker of a
// morsel-driven parallel scan.
#pragma once

#include <atomic>
#include <memory>

#include "exec/executor.h"
#include "exec/gather.h"
#include "storage/heap_file.h"

namespace relopt {

/// \brief Thread-safe dispenser of page ranges ("morsels") over one heap.
///
/// The page count is snapshotted at Reset() (called before any worker runs),
/// so a scan covers exactly the pages that existed when the query started.
class MorselSource : public ParallelSharedState {
 public:
  /// Pages per morsel: large enough to amortize dispatch, small enough that
  /// the tail of a scan still spreads over all workers.
  static constexpr PageNo kDefaultMorselPages = 4;

  explicit MorselSource(const HeapFile* heap, PageNo morsel_pages = kDefaultMorselPages)
      : heap_(heap), morsel_pages_(morsel_pages) {}

  /// Snapshots the heap size and rewinds the cursor. Single-threaded.
  void Reset() override {
    num_pages_ = static_cast<PageNo>(heap_->NumPages());
    next_.store(0, std::memory_order_relaxed);
  }

  /// Claims the next morsel; false when the heap is exhausted.
  bool NextMorsel(PageNo* begin, PageNo* end) {
    PageNo b = next_.fetch_add(morsel_pages_, std::memory_order_relaxed);
    if (b >= num_pages_) return false;
    *begin = b;
    *end = std::min<PageNo>(b + morsel_pages_, num_pages_);
    return true;
  }

  const HeapFile* heap() const { return heap_; }

 private:
  const HeapFile* heap_;
  const PageNo morsel_pages_;
  std::atomic<PageNo> next_{0};
  PageNo num_pages_ = 0;
};

/// \brief Sequential scan: drains morsels from a MorselSource until it is
/// exhausted. A serial scan owns its source, so it claims every morsel in
/// page order; parallel workers share one source (dynamic load balancing).
///
/// Walks its claimed morsels a page at a time through a HeapFile::PageCursor
/// (pin + shared latch held across calls, one pool access per page) and
/// deserializes records straight from the pinned frame — no per-record byte
/// copy. Row and batch drive share the cursor, so their page I/O is identical.
class SeqScanExecutor : public Executor {
 public:
  /// Serial scan of `table`. `schema` is the alias-qualified output schema.
  SeqScanExecutor(ExecContext* ctx, Schema schema, TableInfo* table);
  /// One worker of a parallel scan: `source` is shared with the sibling
  /// workers, reset by their Gather, and must outlive the executor.
  SeqScanExecutor(ExecContext* ctx, Schema schema, MorselSource* source);

  Status InitImpl() override;
  Result<bool> NextImpl(Tuple* out) override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;

  /// The cursor keeps the current page pinned (shared frame latch held)
  /// between calls; release it on the worker thread that acquired it.
  void Abandon() override { (void)cursor_.Close(); }

 private:
  /// Next live record across pages and morsels; false once the source is
  /// exhausted. The view stays valid until the next call.
  Result<bool> NextRecord(Rid* rid, std::string_view* record);

  std::unique_ptr<MorselSource> owned_source_;  ///< serial scan only
  MorselSource* source_;
  HeapFile::PageCursor cursor_;
  PageNo cur_page_ = 0;
  PageNo end_page_ = 0;  ///< current morsel is [cur_page_, end_page_)
  bool done_ = false;
};

}  // namespace relopt

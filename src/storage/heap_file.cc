#include "storage/heap_file.h"

#include <mutex>
#include <shared_mutex>

#include "storage/slotted_page.h"

namespace relopt {

HeapFile::HeapFile(BufferPool* pool, FileId file_id) : pool_(pool), file_id_(file_id) {
  size_t pages = pool_->disk()->NumPages(file_id_);
  if (pages > 0) {
    insert_hint_.store(static_cast<PageNo>(pages - 1), std::memory_order_relaxed);
  }
}

Result<HeapFile> HeapFile::Create(BufferPool* pool) {
  FileId id = pool->disk()->CreateFile();
  return HeapFile(pool, id);
}

size_t HeapFile::NumPages() const { return pool_->disk()->NumPages(file_id_); }

Result<Rid> HeapFile::Insert(std::string_view record) {
  // Try the hint page first.
  PageNo hint = insert_hint_.load(std::memory_order_relaxed);
  if (hint != kInvalidPageNo) {
    PageId pid{file_id_, hint};
    RELOPT_ASSIGN_OR_RETURN(PageFrame * frame, pool_->FetchPage(pid));
    Result<uint16_t> slot{uint16_t{0}};
    bool fit;
    {
      std::unique_lock<std::shared_mutex> latch(frame->latch());
      SlottedPage page(frame->data());
      fit = page.HasRoomFor(record.size());
      if (fit) slot = page.Insert(record);
    }
    if (fit) {
      RELOPT_RETURN_NOT_OK(pool_->UnpinPage(pid, slot.ok()));
      if (slot.ok()) return Rid{hint, *slot};
      return slot.status();
    }
    RELOPT_RETURN_NOT_OK(pool_->UnpinPage(pid, false));
  }
  // Allocate a fresh page.
  RELOPT_ASSIGN_OR_RETURN(PageFrame * frame, pool_->NewPage(file_id_));
  PageId pid = frame->page_id();
  Result<uint16_t> slot{uint16_t{0}};
  {
    std::unique_lock<std::shared_mutex> latch(frame->latch());
    SlottedPage page(frame->data());
    page.Init();
    slot = page.Insert(record);
  }
  RELOPT_RETURN_NOT_OK(pool_->UnpinPage(pid, true));
  RELOPT_RETURN_NOT_OK(slot.status());
  insert_hint_.store(pid.page_no, std::memory_order_relaxed);
  return Rid{pid.page_no, *slot};
}

Result<std::string> HeapFile::Get(Rid rid) const {
  PageId pid{file_id_, rid.page_no};
  RELOPT_ASSIGN_OR_RETURN(PageFrame * frame, pool_->FetchPage(pid));
  Result<std::string_view> rec{std::string_view{}};
  std::string out;
  {
    std::shared_lock<std::shared_mutex> latch(frame->latch());
    SlottedPage page(frame->data());
    rec = page.Get(rid.slot);
    if (rec.ok()) out = std::string(*rec);
  }
  RELOPT_RETURN_NOT_OK(pool_->UnpinPage(pid, false));
  RELOPT_RETURN_NOT_OK(rec.status());
  return out;
}

Status HeapFile::Delete(Rid rid) {
  PageId pid{file_id_, rid.page_no};
  RELOPT_ASSIGN_OR_RETURN(PageFrame * frame, pool_->FetchPage(pid));
  Status st;
  {
    std::unique_lock<std::shared_mutex> latch(frame->latch());
    SlottedPage page(frame->data());
    st = page.Delete(rid.slot);
  }
  RELOPT_RETURN_NOT_OK(pool_->UnpinPage(pid, st.ok()));
  return st;
}

Status HeapFile::PageCursor::Open(PageNo page_no) {
  RELOPT_RETURN_NOT_OK(Close());
  PageId pid{heap_->file_id(), page_no};
  RELOPT_ASSIGN_OR_RETURN(PageFrame * frame, heap_->pool()->FetchPage(pid));
  frame_ = frame;
  frame_->latch().lock_shared();
  page_no_ = page_no;
  slot_ = 0;
  num_slots_ = SlottedPage(frame_->data()).NumSlots();
  return Status::OK();
}

Result<bool> HeapFile::PageCursor::Next(Rid* rid, std::string_view* record) {
  if (frame_ == nullptr) return false;
  SlottedPage page(frame_->data());
  while (slot_ < num_slots_) {
    uint16_t s = slot_++;
    if (!page.IsLive(s)) continue;
    RELOPT_ASSIGN_OR_RETURN(*record, page.Get(s));
    *rid = Rid{page_no_, s};
    return true;
  }
  return false;
}

Status HeapFile::PageCursor::Close() {
  if (frame_ == nullptr) return Status::OK();
  frame_->latch().unlock_shared();
  frame_ = nullptr;
  return heap_->pool()->UnpinPage(PageId{heap_->file_id(), page_no_}, false);
}

HeapFile::Iterator::Iterator(const HeapFile* heap) : heap_(heap) {}

void HeapFile::Iterator::Reset() {
  page_no_ = 0;
  slot_ = 0;
}

Result<bool> HeapFile::Iterator::Next(Rid* rid, std::string* record) {
  size_t num_pages = heap_->NumPages();
  while (page_no_ < num_pages) {
    PageId pid{heap_->file_id_, page_no_};
    RELOPT_ASSIGN_OR_RETURN(PageFrame * frame, heap_->pool_->FetchPage(pid));
    Status bad;
    bool found = false;
    {
      std::shared_lock<std::shared_mutex> latch(frame->latch());
      SlottedPage page(frame->data());
      uint16_t num_slots = page.NumSlots();
      while (slot_ < num_slots) {
        uint16_t s = slot_++;
        if (!page.IsLive(s)) continue;
        Result<std::string_view> rec = page.Get(s);
        if (!rec.ok()) {
          bad = rec.status();
          break;
        }
        *record = std::string(*rec);
        *rid = Rid{page_no_, s};
        found = true;
        break;
      }
    }
    RELOPT_RETURN_NOT_OK(heap_->pool_->UnpinPage(pid, false));
    RELOPT_RETURN_NOT_OK(bad);
    if (found) return true;
    page_no_++;
    slot_ = 0;
  }
  return false;
}

}  // namespace relopt

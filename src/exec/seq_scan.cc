#include "exec/seq_scan.h"

namespace relopt {

SeqScanExecutor::SeqScanExecutor(ExecContext* ctx, Schema schema, TableInfo* table)
    : Executor(ctx, std::move(schema)),
      owned_source_(std::make_unique<MorselSource>(table->heap())),
      source_(owned_source_.get()),
      cursor_(table->heap()) {}

SeqScanExecutor::SeqScanExecutor(ExecContext* ctx, Schema schema, MorselSource* source)
    : Executor(ctx, std::move(schema)), source_(source), cursor_(source->heap()) {}

Status SeqScanExecutor::InitImpl() {
  RELOPT_RETURN_NOT_OK(cursor_.Close());
  if (owned_source_ != nullptr) owned_source_->Reset();
  cur_page_ = 0;
  end_page_ = 0;
  done_ = false;
  ResetCounters();
  return Status::OK();
}

Result<bool> SeqScanExecutor::NextRecord(Rid* rid, std::string_view* record) {
  while (true) {
    if (cursor_.IsOpen()) {
      RELOPT_ASSIGN_OR_RETURN(bool has, cursor_.Next(rid, record));
      if (has) return true;
      RELOPT_RETURN_NOT_OK(cursor_.Close());
    }
    if (done_) return false;
    if (cur_page_ >= end_page_) {
      if (!source_->NextMorsel(&cur_page_, &end_page_)) {
        done_ = true;
        return false;
      }
    }
    RELOPT_RETURN_NOT_OK(cursor_.Open(cur_page_++));
  }
}

Result<bool> SeqScanExecutor::NextImpl(Tuple* out) {
  Rid rid;
  std::string_view bytes;
  RELOPT_ASSIGN_OR_RETURN(bool has, NextRecord(&rid, &bytes));
  if (!has) return false;
  RELOPT_RETURN_NOT_OK(out->FillFrom(bytes, schema_.NumColumns()));
  CountRow();
  return true;
}

Result<bool> SeqScanExecutor::NextBatchImpl(TupleBatch* out) {
  Rid rid;
  std::string_view bytes;
  size_t num_cols = schema_.NumColumns();
  while (!out->Full()) {
    RELOPT_ASSIGN_OR_RETURN(bool has, NextRecord(&rid, &bytes));
    if (!has) {
      CountRows(out->NumSelected());
      return false;
    }
    RELOPT_RETURN_NOT_OK(out->AppendRow()->FillFrom(bytes, num_cols));
  }
  CountRows(out->NumSelected());
  return true;
}

}  // namespace relopt

#ifndef OPAQ_IO_RUN_PIPELINE_H_
#define OPAQ_IO_RUN_PIPELINE_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "io/io_mode.h"
#include "io/run_reader.h"
#include "util/check.h"
#include "util/status.h"

namespace opaq {

/// Reads the blocks of one storage backend: a positioned file read, a stripe
/// chunk, a decoded extent, a remote range or a remote extent. One fetcher
/// serves one thread — the pipeline opens a fresh one per fetch thread (and
/// one on the caller's thread under `IoMode::kSync`) — so fetchers keep
/// scratch buffers and connections without locking.
template <typename K>
class BlockFetcher {
 public:
  virtual ~BlockFetcher() = default;

  /// Announces that `[first, first + count)` is fetched next. Requests and
  /// fetches come in the same order, and a thread may request as far ahead
  /// as the prefetch budget allows. Remote fetchers send the request here so
  /// the network overlaps; local fetchers need nothing.
  virtual Status Request(uint64_t first, uint64_t count) {
    (void)first;
    (void)count;
    return Status::OK();
  }

  /// Delivers elements `[first, first + count)` — always inside one block
  /// of the span's grid — into `out`.
  virtual Status Fetch(uint64_t first, uint64_t count, K* out) = 0;

  /// Wakes a `Fetch` blocked on another thread (remote fetchers shut their
  /// socket down). Called once, when the pipeline is destroyed.
  virtual void Cancel() {}
};

/// One contiguous stretch of a backend's element space, and how to cut it
/// into fetches. The run grid restarts at every span's `first`.
template <typename K>
struct BlockSpan {
  uint64_t first = 0;
  uint64_t count = 0;
  /// The backend's block grid in absolute elements: block b is
  /// `[b * block, (b + 1) * block)`. Under kAsync, block b is fetched by
  /// thread `b % threads`, which is how one thread serves one stripe.
  uint64_t block = UINT64_MAX;
  /// True when reading part of a block costs no more than that part
  /// (positioned reads). Fetches are then also cut at run boundaries and at
  /// `max_fetch` elements, so each lands inside one run. False for extents,
  /// which decode whole: each block is fetched once and spliced into every
  /// run it straddles.
  bool positioned = true;
  uint64_t max_fetch = UINT64_MAX;
  /// Opens a fetcher (once per thread that reads this span).
  std::function<Result<std::unique_ptr<BlockFetcher<K>>>()> open;
};

/// The one run reader of every storage backend: fetches blocks through
/// `BlockFetcher`s and splices them, in order, into runs of
/// `ReadOptions::run_size` elements, so every backend yields exactly the
/// run sequence of `RunReader` over the same logical data.
///
/// Under `IoMode::kSync` fetches run inline on the caller's thread, and
/// every fetch that lies inside one run lands directly in the caller's
/// buffer. Under `IoMode::kAsync`, `threads` fetch threads read ahead while
/// the caller samples. Together they hold at most `prefetch_depth *
/// run_size` elements fetched but not yet delivered (or one block, when a
/// block is larger than that): blocks are admitted to that budget strictly
/// in delivery order, so the block the caller waits for is always admitted
/// first and the budget can never deadlock.
///
/// Errors are sticky and positional: the runs before the first failing
/// block are delivered, then that failure is returned by this and every
/// later `NextRun`. The destructor closes the budget, cancels every open
/// fetcher and joins every thread, so a pipeline abandoned mid-stream can
/// neither hang nor leak.
template <typename K>
class RunPipeline : public RunSource<K> {
 public:
  RunPipeline(std::vector<BlockSpan<K>> spans, const ReadOptions& options,
              uint32_t threads = 1)
      : spans_(std::move(spans)), run_size_(options.run_size),
        threads_(std::max<uint32_t>(threads, 1)), plan_(this) {
    OPAQ_CHECK_GT(run_size_, 0u);
    for (const BlockSpan<K>& span : spans_) {
      OPAQ_CHECK_GT(span.block, 0u);
      OPAQ_CHECK_GT(span.max_fetch, 0u);
    }
    if (!spans_.empty()) run_first_ = spans_[0].first;
    if (options.io_mode != IoMode::kAsync) return;
    OPAQ_CHECK_GE(options.prefetch_depth, 1u)
        << "async prefetching needs at least one run of budget";
    OPAQ_CHECK_LE(options.prefetch_depth, kMaxPrefetchDepth);
    budget_ = options.prefetch_depth > UINT64_MAX / run_size_
                  ? UINT64_MAX
                  : options.prefetch_depth * run_size_;
    ready_.resize(threads_);
    open_.resize(threads_, nullptr);
    for (uint32_t lane = 0; lane < threads_; ++lane) {
      workers_.emplace_back([this, lane] { FetchLoop(lane); });
    }
  }

  ~RunPipeline() override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
      for (BlockFetcher<K>* fetcher : open_) {
        if (fetcher != nullptr) fetcher->Cancel();
      }
    }
    admit_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  RunPipeline(const RunPipeline&) = delete;
  RunPipeline& operator=(const RunPipeline&) = delete;

  /// Fills `buffer` with the next run. The buffer's old storage is reused
  /// (or recycled into the fetch threads), so callers that hand the same
  /// vector back every time allocate nothing per run.
  Result<bool> NextRun(std::vector<K>* buffer) override {
    if (status_.ok()) {
      uint64_t len = 0;
      if (!NextRunLength(&len)) {
        buffer->clear();
        return false;
      }
      status_ = FillRun(len, buffer);
      if (status_.ok()) return true;
    }
    buffer->clear();
    return status_;
  }

 private:
  /// One fetch: a block clipped to its span (and, for positioned fetchers,
  /// to its run and to `max_fetch`).
  struct Piece {
    size_t span = 0;
    uint64_t first = 0;
    uint64_t count = 0;
    uint32_t lane = 0;
  };

  /// Walks the pieces of every span in delivery order. Each fetch thread and
  /// the consumer run their own copy, so they agree on the sequence without
  /// sharing it.
  class Plan {
   public:
    explicit Plan(const RunPipeline* pipeline) : pipeline_(pipeline) {}

    bool Next(Piece* piece) {
      const std::vector<BlockSpan<K>>& spans = pipeline_->spans_;
      for (; span_ < spans.size(); ++span_, started_ = false) {
        const BlockSpan<K>& s = spans[span_];
        if (!started_) {
          pos_ = s.first;
          started_ = true;
        }
        const uint64_t end = s.first + s.count;
        if (pos_ >= end) continue;
        uint64_t len = std::min(end - pos_, s.block - pos_ % s.block);
        if (s.positioned) {
          const uint64_t run_size = pipeline_->run_size_;
          len = std::min({len, s.max_fetch,
                          run_size - (pos_ - s.first) % run_size});
        }
        piece->span = span_;
        piece->first = pos_;
        piece->count = len;
        piece->lane =
            static_cast<uint32_t>(pos_ / s.block % pipeline_->threads_);
        pos_ += len;
        ++seq_;
        return true;
      }
      return false;
    }

    /// Sequence number of the piece `Next` returned last (1-based).
    uint64_t seq() const { return seq_; }

   private:
    const RunPipeline* pipeline_;
    size_t span_ = 0;
    bool started_ = false;
    uint64_t pos_ = 0;
    uint64_t seq_ = 0;
  };

  struct Fetched {
    Status status;
    std::vector<K> data;
  };

  /// Length of the next run, advancing the run cursor past it; false at
  /// the end of the last span.
  bool NextRunLength(uint64_t* len) {
    while (run_span_ < spans_.size()) {
      const BlockSpan<K>& s = spans_[run_span_];
      const uint64_t end = s.first + s.count;
      if (run_first_ < end) {
        *len = std::min(run_size_, end - run_first_);
        run_first_ += *len;
        return true;
      }
      if (++run_span_ < spans_.size()) run_first_ = spans_[run_span_].first;
    }
    return false;
  }

  /// Splices pieces into `buffer` until it holds `len` elements. A piece
  /// that is the whole run is swapped in; a sync piece inside the run is
  /// fetched in place; anything else is copied out of `carry_`.
  Status FillRun(uint64_t len, std::vector<K>* buffer) {
    uint64_t filled = 0;
    while (filled < len) {
      if (offset_ == carry_.size()) {
        Piece piece;
        OPAQ_CHECK(plan_.Next(&piece)) << "run plan ran past its pieces";
        if (workers_.empty()) {
          if (piece.count <= len - filled) {
            buffer->resize(len);
            OPAQ_RETURN_IF_ERROR(FetchInline(piece, buffer->data() + filled));
            filled += piece.count;
            continue;
          }
          carry_.resize(piece.count);
          OPAQ_RETURN_IF_ERROR(FetchInline(piece, carry_.data()));
        } else {
          Fetched fetched = Receive(piece.lane);
          OPAQ_RETURN_IF_ERROR(fetched.status);
          if (filled == 0 && piece.count == len) {
            buffer->swap(fetched.data);
            Release(len, std::move(fetched.data));
            return Status::OK();
          }
          carry_.swap(fetched.data);
          Release(0, std::move(fetched.data));
        }
        offset_ = 0;
      }
      const uint64_t take = std::min(len - filled, carry_.size() - offset_);
      buffer->resize(len);
      std::copy_n(carry_.begin() + offset_, take, buffer->begin() + filled);
      filled += take;
      offset_ += take;
      if (offset_ == carry_.size() && !workers_.empty()) {
        Release(carry_.size(), {});
      }
    }
    return Status::OK();
  }

  /// Sync mode: requests and fetches `piece` on the caller's thread.
  Status FetchInline(const Piece& piece, K* out) {
    if (inline_span_ != piece.span || inline_ == nullptr) {
      inline_.reset();
      OPAQ_ASSIGN_OR_RETURN(inline_, spans_[piece.span].open());
      inline_span_ = piece.span;
    }
    OPAQ_RETURN_IF_ERROR(inline_->Request(piece.first, piece.count));
    return inline_->Fetch(piece.first, piece.count, out);
  }

  /// Blocks until fetch thread `lane` delivers its next piece.
  Fetched Receive(uint32_t lane) {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_cv_.wait(lock, [&] { return !ready_[lane].empty(); });
    Fetched fetched = std::move(ready_[lane].front());
    ready_[lane].pop_front();
    return fetched;
  }

  /// Returns `count` delivered elements to the budget and `storage` to the
  /// free list the fetch threads allocate from.
  void Release(uint64_t count, std::vector<K> storage) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      held_ -= count;
      if (storage.capacity() > 0) free_.push_back(std::move(storage));
    }
    if (count > 0) admit_cv_.notify_all();
  }

  /// Admits piece number `seq` of `count` elements to the budget. Waits
  /// when `wait`; otherwise returns false at once if it does not fit yet.
  /// Also false once the pipeline is closed.
  bool Admit(uint64_t seq, uint64_t count, bool wait) {
    std::unique_lock<std::mutex> lock(mutex_);
    auto fits = [&] {
      return next_admit_ == seq &&
             (held_ == 0 || (held_ <= budget_ && count <= budget_ - held_));
    };
    if (wait) admit_cv_.wait(lock, [&] { return closed_ || fits(); });
    if (closed_ || !fits()) return false;
    held_ += count;
    ++next_admit_;
    lock.unlock();
    admit_cv_.notify_all();
    return true;
  }

  bool Closed() {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  void Deliver(uint32_t lane, Fetched fetched) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ready_[lane].push_back(std::move(fetched));
    }
    ready_cv_.notify_one();
  }

  /// Makes `fetcher` the one `Cancel` reaches on thread `lane`, destroying
  /// the previous one.
  void SetOpen(uint32_t lane, std::unique_ptr<BlockFetcher<K>>* slot,
               std::unique_ptr<BlockFetcher<K>> fetcher) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_[lane] = fetcher.get();
      if (closed_ && fetcher != nullptr) fetcher->Cancel();
    }
    slot->swap(fetcher);
  }

  /// Body of fetch thread `lane`: walks the plan, admits its own pieces in
  /// order, requests each as soon as it is admitted, and fetches the oldest
  /// request. It blocks on the budget only with nothing requested.
  void FetchLoop(uint32_t lane) {
    struct Requested {
      Piece piece;
      Status status;
    };
    Plan plan(this);
    std::deque<Requested> requested;
    std::unique_ptr<BlockFetcher<K>> fetcher;
    size_t fetcher_span = SIZE_MAX;
    Piece next;
    bool more = NextOwn(&plan, lane, &next);
    bool failed = false;
    while (true) {
      while (more && !failed &&
             (requested.empty() || next.span == fetcher_span) &&
             Admit(plan.seq(), next.count, requested.empty())) {
        Requested r{next, Status::OK()};
        if (next.span != fetcher_span) {
          auto opened = spans_[next.span].open();
          r.status = opened.status();
          SetOpen(lane, &fetcher,
                  opened.ok() ? std::move(opened).value() : nullptr);
          fetcher_span = next.span;
        }
        if (r.status.ok()) r.status = fetcher->Request(next.first, next.count);
        failed = !r.status.ok();
        requested.push_back(std::move(r));
        more = NextOwn(&plan, lane, &next);
      }
      if (requested.empty() || Closed()) break;
      Requested r = std::move(requested.front());
      requested.pop_front();
      Fetched fetched;
      if (r.status.ok()) {
        fetched.data = TakeStorage(r.piece.count);
        r.status = fetcher->Fetch(r.piece.first, r.piece.count,
                                  fetched.data.data());
      }
      fetched.status = r.status;
      Deliver(lane, std::move(fetched));
      if (!r.status.ok()) break;
    }
    SetOpen(lane, &fetcher, nullptr);
  }

  /// Advances `plan` to the next piece fetch thread `lane` owns.
  bool NextOwn(Plan* plan, uint32_t lane, Piece* piece) const {
    while (plan->Next(piece)) {
      if (piece->lane == lane) return true;
    }
    return false;
  }

  std::vector<K> TakeStorage(uint64_t count) {
    std::vector<K> storage;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        storage = std::move(free_.back());
        free_.pop_back();
      }
    }
    storage.resize(count);
    return storage;
  }

  const std::vector<BlockSpan<K>> spans_;
  const uint64_t run_size_;
  const uint32_t threads_;
  uint64_t budget_ = 0;

  // Consumer state (the caller's thread only).
  Plan plan_;
  size_t run_span_ = 0;
  uint64_t run_first_ = 0;
  std::vector<K> carry_;  // the piece being spliced across runs
  uint64_t offset_ = 0;   // elements of it already delivered
  std::unique_ptr<BlockFetcher<K>> inline_;
  size_t inline_span_ = SIZE_MAX;
  Status status_;

  // Shared with the fetch threads, under `mutex_`.
  std::mutex mutex_;
  std::condition_variable admit_cv_;
  std::condition_variable ready_cv_;
  bool closed_ = false;
  uint64_t next_admit_ = 1;  // sequence number of the next piece to admit
  uint64_t held_ = 0;        // elements admitted and not yet delivered
  std::vector<std::deque<Fetched>> ready_;
  std::vector<std::vector<K>> free_;
  std::vector<BlockFetcher<K>*> open_;

  std::vector<std::thread> workers_;
};

/// What `BlockSpan::open` returns.
template <typename K>
using FetcherOrError = Result<std::unique_ptr<BlockFetcher<K>>>;

/// Clamps a `first`/`count` sub-range request against a dataset of `size`
/// elements, with the `RunReader` contract: `first` may not pass the end,
/// and `count` is cut at it without ever computing `first + count`.
inline uint64_t ClampCount(uint64_t size, uint64_t first, uint64_t count) {
  OPAQ_CHECK_LE(first, size);
  return std::min(count, size - first);
}

}  // namespace opaq

#endif  // OPAQ_IO_RUN_PIPELINE_H_

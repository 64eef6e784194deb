#include "src/workload/sfs_gen.h"

#include <algorithm>

#include "src/common/logging.h"

namespace slice {

// One load-generating process: Poisson arrivals at its share of the offered
// rate, with a small cap on outstanding requests (like SPECsfs, delivered
// throughput falls below offered load once the server saturates).
class SfsBenchmark::Process {
 public:
  static constexpr int kMaxOutstanding = 4;

  static RpcClientParams TolerantRpc() {
    RpcClientParams params;
    params.retransmit_timeout = FromSeconds(2);  // ride out saturation tails
    return params;
  }

  Process(SfsBenchmark& bench, size_t index, uint64_t seed)
      : bench_(bench),
        index_(index),
        client_(bench.host_, bench.queue_, bench.server_, TolerantRpc()),
        rng_(seed) {}

  void Start() { ScheduleArrival(); }
  void Stop() { stopped_ = true; }
  void set_tenant(uint32_t tenant) { client_.rpc().set_tenant(tenant); }

  uint64_t created_serial = 0;

 private:
  void ScheduleArrival() {
    if (stopped_) {
      return;
    }
    const double per_process_rate =
        bench_.params_.offered_ops_per_sec / static_cast<double>(bench_.params_.num_processes);
    const SimTime gap = FromSeconds(rng_.NextExponential(1.0 / per_process_rate));
    bench_.queue_.ScheduleAfter(gap, [this]() {
      if (stopped_) {
        return;
      }
      if (outstanding_ < kMaxOutstanding) {
        IssueOne();
      }
      ScheduleArrival();
    });
  }

  // Picks an op per the mix table.
  enum class Op {
    kGetattr, kSetattr, kLookup, kReadlink, kRead, kWrite, kCreate, kRemove,
    kReaddir, kFsstat, kAccess, kCommit, kReaddirplus, kFsinfo,
  };

  Op PickOp() {
    const SfsOpMix& mix = bench_.params_.mix;
    const int weights[] = {mix.getattr, mix.setattr, mix.lookup, mix.readlink,
                           mix.read,    mix.write,   mix.create, mix.remove,
                           mix.readdir, mix.fsstat,  mix.access, mix.commit,
                           mix.readdirplus, mix.fsinfo};
    int total = 0;
    for (int w : weights) {
      total += w;
    }
    int pick = static_cast<int>(rng_.NextBelow(static_cast<uint64_t>(total)));
    for (size_t i = 0; i < std::size(weights); ++i) {
      pick -= weights[i];
      if (pick < 0) {
        return static_cast<Op>(i);
      }
    }
    return Op::kGetattr;
  }

  FileInfo& RandomFile() {
    return bench_.files_[rng_.NextBelow(bench_.files_.size())];
  }
  FileHandle RandomDir() { return bench_.dirs_[rng_.NextBelow(bench_.dirs_.size())]; }

  void IssueOne() {
    ++outstanding_;
    const SimTime start = bench_.queue_.now();
    auto finish = [this, start](bool ok) {
      --outstanding_;
      bench_.OnOpComplete(start, ok);
    };

    switch (PickOp()) {
      case Op::kGetattr:
        client_.Getattr(RandomFile().handle, [finish](Status st, const GetattrRes& res) {
          finish(st.ok() && res.status == Nfsstat3::kOk);
        });
        return;
      case Op::kSetattr: {
        SetattrArgs args;
        args.object = RandomFile().handle;
        args.new_attributes.mtime = NfsTime{static_cast<uint32_t>(rng_.NextBelow(1u << 30)), 0};
        client_.Setattr(args, [finish](Status st, const SetattrRes& res) {
          finish(st.ok() && res.status == Nfsstat3::kOk);
        });
        return;
      }
      case Op::kLookup: {
        FileInfo& file = RandomFile();
        client_.Lookup(file.parent, file.name, [finish](Status st, const LookupRes& res) {
          finish(st.ok() && (res.status == Nfsstat3::kOk || res.status == Nfsstat3::kErrNoent));
        });
        return;
      }
      case Op::kReadlink: {
        if (bench_.symlinks_.empty()) {
          client_.Fsinfo(bench_.root_, [finish](Status st, const FsinfoRes&) {
            finish(st.ok());
          });
          return;
        }
        const FileHandle link = bench_.symlinks_[rng_.NextBelow(bench_.symlinks_.size())];
        client_.Readlink(link, [finish](Status st, const ReadlinkRes& res) {
          finish(st.ok() && res.status == Nfsstat3::kOk);
        });
        return;
      }
      case Op::kRead: {
        FileInfo& file = RandomFile();
        const uint64_t blocks = std::max<uint64_t>(1, file.size / bench_.params_.io_size);
        const uint64_t offset = rng_.NextBelow(blocks) * bench_.params_.io_size;
        client_.Read(file.handle, offset, bench_.params_.io_size,
                     [finish](Status st, const ReadResView& res) {
                       finish(st.ok() && res.status == Nfsstat3::kOk);
                     });
        return;
      }
      case Op::kWrite: {
        FileInfo& file = RandomFile();
        const uint64_t blocks = std::max<uint64_t>(1, file.size / bench_.params_.io_size);
        const uint64_t offset = rng_.NextBelow(blocks) * bench_.params_.io_size;
        Bytes& data = bench_.write_buf_;
        data.assign(bench_.params_.io_size, static_cast<uint8_t>(rng_.NextU64()));
        client_.Write(file.handle, offset, data, StableHow::kUnstable,
                      [finish](Status st, const WriteRes& res) {
                        finish(st.ok() && res.status == Nfsstat3::kOk);
                      });
        return;
      }
      case Op::kCreate: {
        // Deterministic per-process namespace: the absolute process index
        // (NOT the heap address — same-seed runs must hash identical names
        // into the dir tier's per-slot counters).
        const std::string name =
            "tmp" + std::to_string(index_) + "_" + std::to_string(created_serial++);
        const FileHandle dir = RandomDir();
        client_.Create(dir, name, [this, finish, dir, name](Status st, const CreateRes& res) {
          if (st.ok() && res.status == Nfsstat3::kOk) {
            temp_files_.emplace_back(dir, name);
          }
          finish(st.ok() && res.status == Nfsstat3::kOk);
        });
        return;
      }
      case Op::kRemove: {
        if (temp_files_.empty()) {
          client_.Access(bench_.root_, 0x3f, [finish](Status st, const AccessRes&) {
            finish(st.ok());
          });
          return;
        }
        auto [dir, name] = temp_files_.back();
        temp_files_.pop_back();
        client_.Remove(dir, name, [finish](Status st, const RemoveRes& res) {
          finish(st.ok() && res.status == Nfsstat3::kOk);
        });
        return;
      }
      case Op::kReaddir:
        client_.Readdir(RandomDir(), 0, 4096, [finish](Status st, const ReaddirRes& res) {
          finish(st.ok() && res.status == Nfsstat3::kOk);
        });
        return;
      case Op::kFsstat:
        client_.Fsstat(bench_.root_, [finish](Status st, const FsstatRes& res) {
          finish(st.ok() && res.status == Nfsstat3::kOk);
        });
        return;
      case Op::kAccess:
        client_.Access(RandomFile().handle, 0x3f, [finish](Status st, const AccessRes& res) {
          finish(st.ok() && res.status == Nfsstat3::kOk);
        });
        return;
      case Op::kCommit:
        client_.Commit(RandomFile().handle, 0, 0, [finish](Status st, const CommitRes& res) {
          finish(st.ok() && res.status == Nfsstat3::kOk);
        });
        return;
      case Op::kReaddirplus:
        client_.Readdirplus(RandomDir(), 0, 8192, [finish](Status st, const ReaddirRes& res) {
          finish(st.ok() && res.status == Nfsstat3::kOk);
        });
        return;
      case Op::kFsinfo:
        client_.Fsinfo(bench_.root_, [finish](Status st, const FsinfoRes& res) {
          finish(st.ok() && res.status == Nfsstat3::kOk);
        });
        return;
    }
  }

  SfsBenchmark& bench_;
  const size_t index_;  // absolute process index, stable across repeated Run()s
  NfsClient client_;
  Rng rng_;
  bool stopped_ = false;
  int outstanding_ = 0;
  std::vector<std::pair<FileHandle, std::string>> temp_files_;
};

SfsBenchmark::SfsBenchmark(Host& host, EventQueue& queue, Endpoint server, FileHandle root,
                           SfsParams params)
    : host_(host), queue_(queue), server_(server), root_(root), params_(params),
      rng_(params.seed) {}

SfsBenchmark::~SfsBenchmark() = default;

uint64_t SfsBenchmark::PickFileSize(Rng& rng) const {
  // Size buckets (KB) and weights tuned so 94% of files are <= 64KB while
  // small files hold roughly a quarter of the bytes (paper §5).
  static constexpr uint64_t kSizesKb[] = {1, 2, 4, 8, 16, 32, 64, 128, 256, 2048};
  static constexpr int kWeights[] = {11, 21, 17, 16, 15, 9, 5, 3, 2, 1};
  int total = 0;
  for (int w : kWeights) {
    total += w;
  }
  int pick = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(total)));
  for (size_t i = 0; i < std::size(kWeights); ++i) {
    pick -= kWeights[i];
    if (pick < 0) {
      return kSizesKb[i] * 1024;
    }
  }
  return 1024;
}

Status SfsBenchmark::Setup() {
  SyncNfsClient client(host_, queue_, server_);

  SLICE_ASSIGN_OR_RETURN(CreateRes top, client.Mkdir(root_, "sfs"));
  if (top.status != Nfsstat3::kOk) {
    return Status(StatusCode::kInternal, "sfs setup: mkdir failed");
  }
  for (size_t d = 0; d < params_.num_dirs; ++d) {
    SLICE_ASSIGN_OR_RETURN(CreateRes dir, client.Mkdir(*top.object, "d" + std::to_string(d)));
    if (dir.status != Nfsstat3::kOk) {
      return Status(StatusCode::kInternal, "sfs setup: subdir failed");
    }
    dirs_.push_back(*dir.object);
  }

  Bytes chunk(32768);
  for (auto& b : chunk) {
    b = static_cast<uint8_t>(rng_.NextU64());
  }

  for (size_t i = 0; i < params_.num_files; ++i) {
    const FileHandle dir = dirs_[i % dirs_.size()];
    const std::string name = "f" + std::to_string(i);
    SLICE_ASSIGN_OR_RETURN(CreateRes created, client.Create(dir, name));
    if (created.status != Nfsstat3::kOk) {
      return Status(StatusCode::kInternal, "sfs setup: create failed");
    }
    FileInfo info;
    info.handle = *created.object;
    info.parent = dir;
    info.name = name;
    info.size = PickFileSize(rng_);
    for (uint64_t off = 0; off < info.size; off += chunk.size()) {
      const uint64_t n = std::min<uint64_t>(chunk.size(), info.size - off);
      SLICE_ASSIGN_OR_RETURN(
          WriteRes written,
          client.Write(info.handle, off, ByteSpan(chunk.data(), n), StableHow::kUnstable));
      if (written.status != Nfsstat3::kOk) {
        return Status(StatusCode::kInternal, "sfs setup: write failed");
      }
    }
    SLICE_ASSIGN_OR_RETURN(CommitRes committed, client.Commit(info.handle, 0, 0));
    (void)committed;
    files_.push_back(std::move(info));

    if (i % 20 == 0) {
      SLICE_ASSIGN_OR_RETURN(CreateRes link,
                             client.Symlink(dir, "l" + std::to_string(i), "/sfs/" + name));
      if (link.status == Nfsstat3::kOk) {
        symlinks_.push_back(*link.object);
      }
    }
  }
  return OkStatus();
}

void SfsBenchmark::OnOpComplete(SimTime started, bool ok) {
  if (!measuring_) {
    return;
  }
  if (!ok) {
    ++errors_;
    return;
  }
  ++completed_;
  latency_.Record(queue_.now() - started);
}

SfsReport SfsBenchmark::Run() {
  // Old processes (from a previous Run) stay alive but stopped, so any of
  // their still-scheduled arrival timers fire harmlessly.
  const size_t first_new = processes_.size();
  for (size_t p = 0; p < params_.num_processes; ++p) {
    processes_.push_back(std::make_unique<Process>(*this, first_new + p, rng_.NextU64()));
    if (params_.num_tenants > 0) {
      // Tenant by absolute process index, stable across repeated Run()s.
      processes_.back()->set_tenant(
          static_cast<uint32_t>((first_new + p) % params_.num_tenants) + 1);
    }
  }
  for (size_t p = first_new; p < processes_.size(); ++p) {
    processes_[p]->Start();
  }

  queue_.RunUntil(queue_.now() + params_.warmup);
  measuring_ = true;
  latency_.Reset();
  completed_ = 0;
  errors_ = 0;

  const SimTime measure_start = queue_.now();
  queue_.RunUntil(measure_start + params_.duration);
  measuring_ = false;
  for (auto& process : processes_) {
    process->Stop();
  }

  SfsReport report;
  report.offered_ops_per_sec = params_.offered_ops_per_sec;
  report.ops_completed = completed_;
  report.errors = errors_;
  report.delivered_iops =
      static_cast<double>(completed_) / ToSeconds(params_.duration);
  report.mean_latency_ms = latency_.MeanMillis();
  report.p50_latency = latency_.Percentile(50);
  report.p95_latency = latency_.Percentile(95);
  report.p99_latency = latency_.Percentile(99);
  return report;
}

}  // namespace slice

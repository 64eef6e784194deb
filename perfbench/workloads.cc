#include "perfbench/workloads.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/nfs/nfs_client.h"
#include "src/sim/stats.h"
#include "src/workload/seqio.h"
#include "src/workload/sfs_gen.h"

namespace perfbench {
namespace {

using slice::Ensemble;
using slice::EnsembleConfig;
using slice::FileHandle;
using slice::Nfsstat3;
using slice::SimTime;
using slice::Status;

// fig5's Slice-8 line at its top offered load (RunSlicePoint(8, 12800) in
// bench/sfs_harness.h). The parameters are pinned here rather than shared
// with the fig5 harness, so a change to fig5 cannot silently change this
// workload. One deliberate difference: the whole simulated run (fig5's
// 0.8 s warm-up plus its 4 s window) is the measured phase, so every op the
// wall time pays for is counted.
class SfsPeak final : public Workload {
 public:
  explicit SfsPeak(uint64_t seed) : seed_(seed) {}

  EnsembleConfig Config() const override {
    EnsembleConfig config;
    config.mgmt.enabled = false;
    config.num_storage_nodes = 8;
    config.num_small_file_servers = 2;
    config.num_dir_servers = 1;
    config.num_clients = 4;
    config.cal.storage_cache_mb = 3.0;
    config.cal.sfs_cache_mb = 6.0;
    config.storage_extra_meta_ios = 3.0;
    return config;
  }

  std::string Setup(Ensemble& ensemble) override {
    slice::SfsParams params;
    params.offered_ops_per_sec = 12800;
    params.num_files = 3200;     // fig5 grows the file set as offered / 4
    params.num_dirs = 16;
    params.num_processes = 128;  // and the generator count as offered / 100
    params.warmup = 0;
    params.duration = slice::FromMillis(4800);
    params.seed = seed_;
    bench_ = std::make_unique<slice::SfsBenchmark>(ensemble.client_host(0), ensemble.queue(),
                                                   ensemble.virtual_server(), ensemble.root(),
                                                   params);
    const Status status = bench_->Setup();
    return status.ok() ? "" : "sfs_peak setup: " + status.ToString();
  }

  WorkloadResult Measure(Ensemble&) override {
    const slice::SfsReport report = bench_->Run();
    WorkloadResult result;
    result.completed = report.ops_completed;
    result.failed = report.errors;
    result.p50 = report.p50_latency;
    result.p99 = report.p99_latency;
    return result;
  }

  std::string Verify(Ensemble& ensemble) override {
    // The generators keep the file set to themselves; what stays checkable
    // from outside is the tree Setup built.
    auto client = ensemble.MakeSyncClient(1);
    const auto top = client->Lookup(ensemble.root(), "sfs");
    if (!top.ok() || top->status != Nfsstat3::kOk) {
      return "sfs_peak: /sfs is gone";
    }
    const auto listing = client->ReadWholeDir(top->object);
    if (!listing.ok()) {
      return "sfs_peak: readdir /sfs: " + listing.status().ToString();
    }
    const auto dirs = std::count_if(listing->begin(), listing->end(), [](const auto& entry) {
      return entry.name.size() > 1 && entry.name[0] == 'd';
    });
    return dirs == 16 ? "" : "sfs_peak: /sfs lists " + std::to_string(dirs) + " of 16 dirs";
  }

 private:
  uint64_t seed_;
  std::unique_ptr<slice::SfsBenchmark> bench_;
};

// table2's dd configuration (bench/table2_bulk_io.cc: 8 clients, 8 storage
// nodes, no small-file servers, 32 KB blocks, read-ahead 4 and its per-byte
// client costs). Setup writes one file for each reading client and restarts
// the storage nodes so their caches are cold; the measured phase re-reads
// those files on clients 0-3 while clients 4-7 write new ones.
class BulkStream final : public Workload {
 public:
  static constexpr size_t kStreams = 8;
  static constexpr size_t kReaders = 4;
  static constexpr uint32_t kBlock = 32768;
  static constexpr uint64_t kBaseBytes = 24ull << 20;
  static constexpr uint64_t kJitterBlocks = 64;  // the seed varies each file by up to 2 MB

  explicit BulkStream(uint64_t seed) {
    slice::Rng rng(seed);
    for (uint64_t& bytes : file_bytes_) {
      bytes = kBaseBytes + rng.NextBelow(kJitterBlocks) * kBlock;
    }
  }

  EnsembleConfig Config() const override {
    EnsembleConfig config;
    config.mgmt.enabled = false;
    config.num_storage_nodes = 8;
    config.num_small_file_servers = 0;
    config.num_coordinators = 1;
    config.num_clients = kStreams;
    return config;
  }

  std::string Setup(Ensemble& ensemble) override {
    for (size_t c = 0; c < kStreams; ++c) {
      auto client = ensemble.MakeSyncClient(c);
      const auto created = client->Create(ensemble.root(), "dd" + std::to_string(c));
      if (!created.ok() || created->status != Nfsstat3::kOk || !created->object) {
        return "bulk_stream setup: create dd" + std::to_string(c) + " failed";
      }
      files_[c] = *created->object;
    }
    size_t done = 0;
    std::vector<std::unique_ptr<slice::SeqIoProcess>> writers;
    for (size_t c = 0; c < kReaders; ++c) {
      writers.push_back(MakeStream(ensemble, c, /*write=*/true, [&done] { ++done; }));
    }
    for (auto& writer : writers) {
      writer->Start();
    }
    while (done < kReaders && ensemble.queue().RunOne()) {
    }
    for (const auto& writer : writers) {
      if (!writer->done() || writer->errors() != 0) {
        return "bulk_stream setup: populating a file failed";
      }
    }
    for (size_t i = 0; i < ensemble.num_storage_nodes(); ++i) {
      ensemble.storage_node(i).Fail();
      ensemble.storage_node(i).Restart();
    }
    return "";
  }

  WorkloadResult Measure(Ensemble& ensemble) override {
    size_t finished = 0;
    std::vector<std::unique_ptr<slice::SeqIoProcess>> streams;
    for (size_t c = 0; c < kStreams; ++c) {
      streams.push_back(MakeStream(ensemble, c, /*write=*/c >= kReaders, [&finished] { ++finished; }));
    }
    for (auto& stream : streams) {
      stream->Start();
    }
    while (finished < kStreams && ensemble.queue().RunOne()) {
    }
    stalled_ = finished < kStreams;

    WorkloadResult result;
    slice::LatencyStats latency;
    for (size_t c = 0; c < kStreams; ++c) {
      const slice::SeqIoProcess& stream = *streams[c];
      OpClassTally& tally = result.by_class[c < kReaders ? "READ" : "WRITE"];
      tally.attempted += stream.latency().count();
      tally.failed += stream.errors();
      result.completed += stream.latency().count() - stream.errors();
      result.failed += stream.errors();
      latency.Merge(stream.latency());
    }
    result.p50 = latency.Percentile(50);
    result.p99 = latency.Percentile(99);
    return result;
  }

  std::string Verify(Ensemble& ensemble) override {
    if (stalled_) {
      return "bulk_stream: the event queue drained before every stream finished";
    }
    auto client = ensemble.MakeSyncClient(0);
    for (size_t c = 0; c < kStreams; ++c) {
      const std::string name = "dd" + std::to_string(c);
      const auto attr = client->Getattr(files_[c]);
      if (!attr.ok() || attr->size != file_bytes_[c]) {
        return "bulk_stream: " + name + " has the wrong size";
      }
      const uint64_t blocks = file_bytes_[c] / kBlock;
      for (const uint64_t block : {uint64_t{0}, blocks / 2, blocks - 1}) {
        const uint64_t offset = block * kBlock;
        const auto read = client->Read(files_[c], offset, kBlock);
        if (!read.ok() || read->status != Nfsstat3::kOk || read->count != kBlock) {
          return "bulk_stream: reading " + name + " failed";
        }
        // SeqIoProcess fills every block it writes with (offset >> 15).
        const auto fill = static_cast<uint8_t>(offset >> 15);
        if (std::any_of(read->data.begin(), read->data.end(),
                        [fill](uint8_t b) { return b != fill; })) {
          return "bulk_stream: " + name + " block " + std::to_string(block) +
                 " holds the wrong bytes";
        }
      }
    }
    return "";
  }

 private:
  std::unique_ptr<slice::SeqIoProcess> MakeStream(Ensemble& ensemble, size_t c, bool write,
                                                  std::function<void()> on_done) {
    slice::SeqIoParams params;
    params.file_bytes = file_bytes_[c];
    params.block_size = kBlock;
    params.write = write;
    params.client_ns_per_byte = write ? 24.0 : 14.0;
    params.commit_every = 16 << 20;
    return std::make_unique<slice::SeqIoProcess>(ensemble.client_host(c), ensemble.queue(),
                                                 ensemble.virtual_server(), files_[c], params,
                                                 std::move(on_done));
  }

  std::array<uint64_t, kStreams> file_bytes_{};
  std::array<FileHandle, kStreams> files_{};
  bool stalled_ = false;
};

// Name-space churn on a few large directories, with name hashing over four
// dir servers (fig3's ensemble under its Slice-4h policy). Closed-loop
// processes spread over five client hosts pick every op from the SFS97 mix
// (SfsOpMix in src/workload/sfs_gen.h) restricted to its name-space ops and
// renormalized: LOOKUP 27, GETATTR 11, CREATE 1, REMOVE 1, READDIRPLUS 9.
// A READDIRPLUS pick reads the next 8 KB page (sfs_gen's page size) of the
// process's current listing, which starts at cookie 0 on a random directory
// and ends at EOF; the pick after EOF starts a new listing. Each page is one
// op, so the mix alone paces the listings.
// Listings are followed but their contents are not checked: rank-based
// cookies may skip or repeat entries under churn, and fixing that must not
// change what this workload is.
class DirChurn final : public Workload {
 public:
  static constexpr size_t kDirs = 4;
  static constexpr size_t kEntriesPerDir = 2000;
  static constexpr size_t kProcesses = 16;
  static constexpr size_t kClients = 5;
  static constexpr uint32_t kPageBytes = 8192;
  // A fixed op count rather than a fixed sim time: the closed loop's
  // sim-time throughput varies by more than half from seed to seed, and with
  // a fixed time so would the work per run and the memory the servers' reply
  // caches fill.
  static constexpr uint64_t kMeasuredOps = 8000;

  explicit DirChurn(uint64_t seed) : rng_(seed) {}

  EnsembleConfig Config() const override {
    EnsembleConfig config;
    config.mgmt.enabled = false;
    config.num_dir_servers = 4;
    config.name_policy = slice::NamePolicy::kNameHashing;
    config.num_small_file_servers = 1;
    config.num_storage_nodes = 2;
    config.num_clients = kClients;
    return config;
  }

  std::string Setup(Ensemble& ensemble) override {
    auto client = ensemble.MakeSyncClient(0);
    for (size_t d = 0; d < kDirs; ++d) {
      Dir& dir = dirs_[d];
      const auto made = client->Mkdir(ensemble.root(), "churn" + std::to_string(d));
      if (!made.ok() || made->status != Nfsstat3::kOk || !made->object) {
        return "dir_churn setup: mkdir failed";
      }
      dir.fh = *made->object;
      for (size_t i = 0; i < kEntriesPerDir; ++i) {
        // The seed moves the name's hash, hence its dir site; the length is
        // fixed so the cost of copying names does not depend on the seed.
        char buf[24];
        std::snprintf(buf, sizeof(buf), "s%04zu_%08llx", i,
                      static_cast<unsigned long long>(rng_.NextBelow(1ull << 32)));
        std::string name = buf;
        const auto created = client->Create(dir.fh, name);
        if (!created.ok() || created->status != Nfsstat3::kOk || !created->object) {
          return "dir_churn setup: create " + name + " failed";
        }
        dir.stable.push_back(std::move(name));
        dir.stable_fh.push_back(*created->object);
      }
    }
    return "";
  }

  WorkloadResult Measure(Ensemble& ensemble) override;
  std::string Verify(Ensemble& ensemble) override;

 private:
  class Process;
  enum Op : size_t { kLookup, kGetattr, kCreate, kRemove, kReaddirplus, kNumOps };
  static constexpr std::array<const char*, kNumOps> kOpNames = {"LOOKUP", "GETATTR", "CREATE",
                                                                "REMOVE", "READDIRPLUS"};
  static constexpr slice::SfsOpMix kMix{};
  static constexpr std::array<int, kNumOps> kOpWeights = {kMix.lookup, kMix.getattr, kMix.create,
                                                          kMix.remove, kMix.readdirplus};

  // Live churn names of one directory, with O(1) random pick and erase.
  struct NamePool {
    std::vector<std::string> names;
    std::unordered_map<std::string, size_t> index;

    void Add(const std::string& name) {
      index[name] = names.size();
      names.push_back(name);
    }
    void Erase(const std::string& name) {
      const auto it = index.find(name);
      if (it == index.end()) {
        return;
      }
      const size_t i = it->second;
      index.erase(it);
      if (i + 1 != names.size()) {
        names[i] = std::move(names.back());
        index[names[i]] = i;
      }
      names.pop_back();
    }
  };

  struct Dir {
    FileHandle fh;
    std::vector<std::string> stable;  // created in Setup, never removed
    std::vector<FileHandle> stable_fh;
    NamePool live;
  };

  std::array<Dir, kDirs> dirs_;
  std::vector<std::unique_ptr<Process>> processes_;
  slice::Rng rng_;
  uint64_t measured_ops_ = 0;
  bool measuring_ = false;
  bool stopped_ = false;
};

class DirChurn::Process {
 public:
  Process(DirChurn& work, Ensemble& ensemble, size_t index, uint64_t seed)
      : work_(work),
        queue_(ensemble.queue()),
        index_(index),
        client_(ensemble.client_host(index % kClients), ensemble.queue(),
                ensemble.virtual_server()),
        rng_(seed) {
    for (size_t op = 0; op < kNumOps; ++op) {
      deck_.insert(deck_.end(), static_cast<size_t>(kOpWeights[op]), static_cast<Op>(op));
    }
    dealt_ = deck_.size();
  }

  void Start() {
    // Issue from inside an event dispatch, like every later op.
    queue_.ScheduleAt(queue_.now(), [this] { Next(); });
  }

  bool idle() const { return idle_; }
  const std::array<OpClassTally, kNumOps>& tally() const { return tally_; }
  const slice::LatencyStats& latency() const { return latency_; }

 private:
  void Next() {
    if (work_.stopped_) {
      idle_ = true;
      return;
    }
    switch (PickOp()) {
      case kLookup:
        Lookup();
        return;
      case kGetattr:
        Getattr();
        return;
      case kCreate:
        Create();
        return;
      case kRemove:
        // A process removes only names it created, so no REMOVE races
        // another; with none left it creates one instead.
        if (own_.empty()) {
          Create();
        } else {
          Remove();
        }
        return;
      default:
        NextPage();
        return;
    }
  }

  // Ops are dealt from a shuffled deck that holds the mix's exact counts, so
  // every seed runs the same proportions and only their order changes.
  Op PickOp() {
    if (dealt_ == deck_.size()) {
      for (size_t i = deck_.size() - 1; i > 0; --i) {
        std::swap(deck_[i], deck_[rng_.NextBelow(i + 1)]);
      }
      dealt_ = 0;
    }
    return deck_[dealt_++];
  }

  void Lookup() {
    Dir& dir = work_.dirs_[rng_.NextBelow(kDirs)];
    // Any current name of the directory. A churn name may race its REMOVE:
    // NOENT is then the right answer.
    const size_t i = rng_.NextBelow(dir.stable.size() + dir.live.names.size());
    const bool churn = i >= dir.stable.size();
    const std::string& name = churn ? dir.live.names[i - dir.stable.size()] : dir.stable[i];
    const SimTime start = queue_.now();
    client_.Lookup(dir.fh, name, [this, start, churn](Status st, const slice::LookupRes& res) {
      Finish(kLookup, start,
             st.ok() && (res.status == Nfsstat3::kOk ||
                         (churn && res.status == Nfsstat3::kErrNoent)));
    });
  }

  void Getattr() {
    const Dir& dir = work_.dirs_[rng_.NextBelow(kDirs)];
    const SimTime start = queue_.now();
    client_.Getattr(dir.stable_fh[rng_.NextBelow(dir.stable_fh.size())],
                    [this, start](Status st, const slice::GetattrRes& res) {
                      Finish(kGetattr, start, st.ok() && res.status == Nfsstat3::kOk);
                    });
  }

  void Create() {
    const size_t d = rng_.NextBelow(kDirs);
    std::string name = "p" + std::to_string(index_) + "_" + std::to_string(serial_++);
    const SimTime start = queue_.now();
    const FileHandle dir_fh = work_.dirs_[d].fh;
    client_.Create(dir_fh, name,
                   [this, start, d, name](Status st, const slice::CreateRes& res) {
                     const bool ok = st.ok() && res.status == Nfsstat3::kOk;
                     if (ok) {
                       work_.dirs_[d].live.Add(name);
                       own_.emplace_back(d, name);
                     }
                     Finish(kCreate, start, ok);
                   });
  }

  void Remove() {
    const size_t i = rng_.NextBelow(own_.size());
    const auto [d, name] = own_[i];
    own_[i] = std::move(own_.back());
    own_.pop_back();
    work_.dirs_[d].live.Erase(name);
    const SimTime start = queue_.now();
    client_.Remove(work_.dirs_[d].fh, name, [this, start](Status st, const slice::RemoveRes& res) {
      Finish(kRemove, start, st.ok() && res.status == Nfsstat3::kOk);
    });
  }

  void NextPage() {
    if (!listing_) {
      listing_ = true;
      list_dir_ = rng_.NextBelow(kDirs);
      cookie_ = 0;
    }
    const SimTime start = queue_.now();
    client_.Readdirplus(work_.dirs_[list_dir_].fh, cookie_, kPageBytes,
                        [this, start](Status st, const slice::ReaddirRes& res) {
                          const bool ok = st.ok() && res.status == Nfsstat3::kOk;
                          if (!ok || res.eof || res.entries.empty()) {
                            listing_ = false;
                          } else {
                            cookie_ = res.entries.back().cookie;
                          }
                          Finish(kReaddirplus, start, ok);
                        });
  }

  void Finish(Op op, SimTime start, bool ok) {
    if (work_.measuring_) {
      ++tally_[op].attempted;
      if (ok) {
        latency_.Record(queue_.now() - start);
      } else {
        ++tally_[op].failed;
      }
      if (++work_.measured_ops_ == kMeasuredOps) {
        work_.measuring_ = false;
        work_.stopped_ = true;
      }
    }
    Next();
  }

  DirChurn& work_;
  slice::EventQueue& queue_;
  const size_t index_;
  slice::NfsClient client_;
  slice::Rng rng_;
  std::vector<Op> deck_;
  size_t dealt_ = 0;
  std::vector<std::pair<size_t, std::string>> own_;  // this process's live names
  uint64_t serial_ = 0;
  bool listing_ = false;
  size_t list_dir_ = 0;
  uint64_t cookie_ = 0;
  bool idle_ = false;
  std::array<OpClassTally, kNumOps> tally_{};
  slice::LatencyStats latency_;
};

WorkloadResult DirChurn::Measure(Ensemble& ensemble) {
  for (size_t p = 0; p < kProcesses; ++p) {
    processes_.push_back(std::make_unique<Process>(*this, ensemble, p, rng_.NextU64()));
  }
  measuring_ = true;
  for (auto& process : processes_) {
    process->Start();
  }
  while (!stopped_ && ensemble.queue().RunOne()) {
  }

  WorkloadResult result;
  slice::LatencyStats latency;
  for (const auto& process : processes_) {
    for (size_t op = 0; op < kNumOps; ++op) {
      OpClassTally& tally = result.by_class[kOpNames[op]];
      tally.attempted += process->tally()[op].attempted;
      tally.failed += process->tally()[op].failed;
      result.completed += process->tally()[op].attempted - process->tally()[op].failed;
      result.failed += process->tally()[op].failed;
    }
    latency.Merge(process->latency());
  }
  result.p50 = latency.Percentile(50);
  result.p99 = latency.Percentile(99);
  return result;
}

std::string DirChurn::Verify(Ensemble& ensemble) {
  // Let the ops in flight at the deadline finish, then every directory must
  // list exactly its stable entries plus the churn names still alive.
  ensemble.queue().RunUntilIdle();
  for (const auto& process : processes_) {
    if (!process->idle()) {
      return "dir_churn: a process never saw its last reply";
    }
  }
  auto client = ensemble.MakeSyncClient(0);
  for (size_t d = 0; d < kDirs; ++d) {
    const Dir& dir = dirs_[d];
    std::set<std::string> expected(dir.stable.begin(), dir.stable.end());
    expected.insert(dir.live.names.begin(), dir.live.names.end());
    const auto listing = client->ReadWholeDir(dir.fh);
    if (!listing.ok()) {
      return "dir_churn: readdir churn" + std::to_string(d) + ": " + listing.status().ToString();
    }
    std::set<std::string> listed;
    for (const auto& entry : *listing) {
      if (entry.name != "." && entry.name != "..") {
        listed.insert(entry.name);
      }
    }
    if (listed != expected) {
      return "dir_churn: churn" + std::to_string(d) + " lists " + std::to_string(listed.size()) +
             " names, expected " + std::to_string(expected.size());
    }
  }
  return "";
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(std::string_view name, uint64_t seed) {
  if (name == "sfs_peak") {
    return std::make_unique<SfsPeak>(seed);
  }
  if (name == "bulk_stream") {
    return std::make_unique<BulkStream>(seed);
  }
  if (name == "dir_churn") {
    return std::make_unique<DirChurn>(seed);
  }
  return nullptr;
}

}  // namespace perfbench

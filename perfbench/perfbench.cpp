// The repository benchmark harness (perfbench/README.md).
//
//   perfbench --workload db_search|pair_service --seed N
//             --seconds S --trace 0|1 [--size full|tiny] [--spans PATH]
//
// Generates the workload's inputs from the seed, runs it against one
// AlignService (nprocs 4, workers 1) from a single generator process, checks
// every answer against the repository's oracles outside the timed regions,
// and prints one JSON object: the end-to-end metrics with tracing off, or
// the per-layer metrics of a traced run with tracing on.  run.py builds this
// binary, adds the host fingerprint and prints the result line.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/blocked.h"
#include "core/blocked_mp.h"
#include "core/wavefront.h"
#include "db/bound_batch.h"
#include "db/db_align.h"
#include "db/subject_db.h"
#include "dsm/backend.h"
#include "dsm/cluster.h"
#include "dsm/stats.h"
#include "mp/comm.h"
#include "obs/json.h"
#include "obs/report.h"
#include "simd/dispatch.h"
#include "simd/striped.h"
#include "stats.h"
#include "svc/service.h"
#include "sw/heuristic_scan.h"
#include "sw/linear_score.h"
#include "testing/gotoh_ref.h"
#include "trace.h"
#include "util/genome.h"
#include "util/rng.h"

namespace {

using namespace gdsm;
using perfbench::Clock;
using perfbench::Tracer;

constexpr int kProcs = 4;
/// One dispatcher: with four cluster nodes that keeps the service's busy
/// threads within the host's four cores, so the figures measure the program
/// rather than the guest scheduler (perfbench/README.md, "Steadiness").
constexpr int kWorkers = 1;
/// Queries outstanding in the saturated phase: enough to keep every worker
/// busy with one more queued behind it, far below the admission bound.
constexpr std::size_t kClients = 2 * kWorkers;
constexpr double kInf = std::numeric_limits<double>::infinity();

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::time_point at(Clock::time_point t0, double s) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(s));
}

double median(const std::vector<double>& v) { return perfbench::quantile(v, 0.5); }

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// Workloads and their seeded inputs

/// Fixed per-workload operating points.  They are part of the benchmark's
/// definition (BENCHMARK.json states them in each workload's `why`); a change
/// to any of them is a change to the benchmark, not to the program.
struct WorkloadDef {
  std::string name;
  double nominal_rate = 0;  ///< q/s of the open-loop phase (~1/4 of throughput)
  double limit_ms = 0;      ///< tail-latency limit of the open-loop phase
};

const std::vector<WorkloadDef>& workload_defs() {
  static const std::vector<WorkloadDef> defs = {
      {"db_search", 60, 200},
      {"pair_service", 30, 250},
  };
  return defs;
}

struct Probe {
  svc::QuerySpec spec;
  int home = -1;              ///< db_search: source sequence of a homologous probe
  std::uint32_t home_begin = 0;
};

struct Inputs {
  WorkloadDef def;
  bool tiny = false;
  std::vector<Sequence> db_seqs;   ///< db_search database
  std::vector<Sequence> subjects;  ///< pair_service residents
  std::vector<Probe> probes;       ///< the distinct inputs
  int min_score = 120;
};

ScoreScheme affine_scheme() {
  ScoreScheme s;
  s.gap_open = -3;
  s.gap = -1;
  return s;
}

/// db_search-style probes over `seqs`: even index a lightly mutated 150 bp
/// window of a database sequence (it must hit its home fragment), odd index
/// random DNA (the bound should discard nearly every fragment).
std::vector<Probe> make_db_probes(const std::vector<Sequence>& seqs,
                                  std::size_t n, std::size_t len, Rng& rng) {
  std::vector<Probe> out;
  for (std::size_t i = 0; i < n; ++i) {
    Probe p;
    if (i % 2 == 0) {
      const auto k = static_cast<int>(rng.below(seqs.size()));
      const Sequence& src = seqs[static_cast<std::size_t>(k)];
      const std::size_t w = std::min(len, src.size());
      const std::size_t b = w < src.size() ? rng.below(src.size() - w) : 0;
      p.spec.query = mutate(src.slice(b, b + w), 0.02, 0.005, rng);
      p.home = k;
      p.home_begin = static_cast<std::uint32_t>(b);
    } else {
      p.spec.query = random_dna(len, rng);
    }
    p.spec.query.set_name("probe" + std::to_string(i));
    out.push_back(std::move(p));
  }
  return out;
}

Inputs make_inputs(const WorkloadDef& def, std::uint64_t seed, bool tiny) {
  Inputs in;
  in.def = def;
  in.tiny = tiny;
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5eed);
  if (def.name == "db_search") {
    const std::size_t n_seqs = tiny ? 4 : 32, len = tiny ? 4000 : 32000;
    for (std::size_t k = 0; k < n_seqs; ++k) {
      in.db_seqs.push_back(random_dna(len, rng, "db" + std::to_string(k)));
    }
    in.probes = make_db_probes(in.db_seqs, tiny ? 32 : 512, 150, rng);
    for (Probe& p : in.probes) {
      p.spec.database = "db";
      p.spec.min_score = in.min_score;
    }
  } else {
    const std::size_t len = tiny ? 1000 : 4000, qlen = tiny ? 120 : 250;
    for (int k = 0; k < 4; ++k) {
      in.subjects.push_back(random_dna(len, rng, "subject" + std::to_string(k)));
    }
    const std::size_t n = tiny ? 32 : 256;
    for (std::size_t i = 0; i < n; ++i) {
      Probe p;
      const Sequence& subj = in.subjects[i % 4];
      const std::size_t b = rng.below(subj.size() - qlen);
      p.spec.subject = subj.name();
      p.spec.query = mutate(subj.slice(b, b + qlen), 0.05, 0.01, rng);
      p.spec.query.set_name("probe" + std::to_string(i));
      if (i % 2 == 1) p.spec.scheme = affine_scheme();
      p.spec.strategy =
          i % 8 == 0 ? svc::StrategyKind::kExact : svc::StrategyKind::kAuto;
      p.home = static_cast<int>(i % 4);
      p.home_begin = static_cast<std::uint32_t>(b);
      in.probes.push_back(std::move(p));
    }
  }
  return in;
}

svc::ServiceConfig service_config() {
  svc::ServiceConfig cfg;
  cfg.nprocs = kProcs;
  cfg.workers = kWorkers;
  return cfg;
}

std::unique_ptr<svc::AlignService> start_service(const Inputs& in) {
  auto s = std::make_unique<svc::AlignService>(service_config());
  if (!in.db_seqs.empty()) s->load_db("db", in.db_seqs);
  for (const Sequence& subj : in.subjects) s->load_subject(subj);
  return s;
}

const Sequence& subject_of(const Inputs& in, const Probe& p) {
  return in.subjects[static_cast<std::size_t>(p.home)];
}

// ---------------------------------------------------------------------------
// Answers: every answer is compared with the first answer to the same input;
// the first answers are checked against the oracles after the timed phases.

struct Answer {
  std::vector<Candidate> candidates;
  BestLocal best{};
  std::vector<db::DbHit> hits;

  static Answer of(const svc::QueryResult& r) {
    return Answer{r.candidates, r.best, r.db_hits};
  }
  bool operator==(const Answer& o) const {
    return candidates == o.candidates && best.score == o.best.score &&
           best.end_i == o.best.end_i && best.end_j == o.best.end_j &&
           hits == o.hits;
  }
};

class AnswerBook {
 public:
  explicit AnswerBook(std::size_t n) : first_(n) {}

  void record(std::size_t probe, const svc::QueryResult& r) {
    Answer a = Answer::of(r);
    const std::scoped_lock lk(mu_);
    if (!first_[probe]) {
      first_[probe] = std::move(a);
    } else if (!(*first_[probe] == a)) {
      ++inconsistent_;
    }
  }
  const std::vector<std::optional<Answer>>& first() const { return first_; }
  std::size_t inconsistent() const { return inconsistent_; }

 private:
  std::mutex mu_;
  std::vector<std::optional<Answer>> first_;
  std::size_t inconsistent_ = 0;
};

// ---------------------------------------------------------------------------
// Load generation

struct Sample {
  std::uint64_t id = 0;
  std::size_t probe = 0;
  double late_s = 0;   ///< generator lateness: actual send - due
  double wait_s = 0, run_s = 0, total_s = 0;
  double est_s = 0;    ///< scheduler estimate of what ran
  std::size_t batch = 0;
  svc::StrategyKind strategy = svc::StrategyKind::kAuto;
  bool rejected = false;
  bool failed = false;
  std::string error;

  bool ok() const { return !rejected && !failed; }
  /// Latency from when the query was due: admission delay plus total_s.
  double latency_s() const { return ok() ? late_s + total_s : kInf; }
};

struct Phase {
  std::deque<Sample> samples;  ///< a deque: senders hold pointers into it

  std::vector<double> latencies_ms() const {
    std::vector<double> v;
    for (const Sample& s : samples) v.push_back(s.latency_s() * 1e3);
    return v;
  }
  std::size_t rejected() const {
    return static_cast<std::size_t>(std::count_if(
        samples.begin(), samples.end(), [](const Sample& s) { return s.rejected; }));
  }
  std::size_t failed() const {
    return static_cast<std::size_t>(std::count_if(
        samples.begin(), samples.end(), [](const Sample& s) { return s.failed; }));
  }
};

/// Drives one AlignService.  Queries come from a single generator thread
/// (open loop: sleep until due, submit) and are collected by one thread;
/// each phase's arrival schedule and probe order derive from the seed and
/// the phase tag alone, so a seed replays the same offered load.
class LoadGen {
 public:
  LoadGen(svc::AlignService& service, const Inputs& in, AnswerBook& book,
         Tracer& tracer, std::uint64_t seed)
      : service_(service), in_(in), book_(book), tracer_(tracer), seed_(seed) {}

  /// Open loop at `rate` q/s with Poisson arrivals for `duration_s`.
  Phase open_loop(double rate, double duration_s, std::uint64_t tag) {
    Rng rng(seed_ ^ (tag * 0xd1b54a32d192ed03ull));
    std::size_t cursor = rng.below(in_.probes.size());
    std::vector<std::pair<double, std::size_t>> schedule;
    for (double t = 0;;) {
      const double u = (static_cast<double>(rng() >> 11) + 0.5) * 0x1p-53;
      t += -std::log(u) / rate;
      if (t >= duration_s) break;
      schedule.emplace_back(t, cursor++ % in_.probes.size());
    }
    Phase ph;
    ph.samples.resize(schedule.size());
    Collector col(*this);
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
    for (std::size_t k = 0; k < schedule.size(); ++k) {
      const Clock::time_point due = at(t0, schedule[k].first);
      std::this_thread::sleep_until(due);
      Sample& s = ph.samples[k];
      s.probe = schedule[k].second;
      col.push(send(s, due));
    }
    col.finish();
    return ph;
  }

  /// Closed loop: `clients` queries outstanding until `duration_s` passed,
  /// the next one sent when the oldest completes.  `elapsed_s` receives the
  /// time from the first send to the last answer.
  Phase closed_loop(std::size_t clients, double duration_s, std::uint64_t tag,
                    double* elapsed_s = nullptr) {
    Rng rng(seed_ ^ (tag * 0xd1b54a32d192ed03ull));
    std::size_t cursor = rng.below(in_.probes.size());
    Phase ph;
    std::deque<Pending> out;
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point end = at(t0, duration_s);
    for (;;) {
      while (out.size() < clients && Clock::now() < end) {
        Sample& s = ph.samples.emplace_back();
        s.probe = cursor++ % in_.probes.size();
        out.push_back(send(s, Clock::now()));
      }
      if (out.empty()) break;
      const Pending p = std::move(out.front());
      out.pop_front();
      complete(p, p.ticket->wait());
    }
    if (elapsed_s != nullptr) *elapsed_s = secs(t0, Clock::now());
    return ph;
  }

 private:
  struct Pending {
    Sample* sample = nullptr;
    svc::TicketPtr ticket;
    Clock::time_point sent{};
  };

  /// Waits on tickets in submission order off the generator thread.
  class Collector {
   public:
    explicit Collector(LoadGen& d) : d_(d), th_([this] { loop(); }) {}
    ~Collector() { finish(); }
    Collector(const Collector&) = delete;
    Collector& operator=(const Collector&) = delete;
    void push(Pending p) {
      {
        const std::scoped_lock lk(mu_);
        q_.push_back(std::move(p));
      }
      cv_.notify_one();
    }
    void finish() {
      if (!th_.joinable()) return;
      {
        const std::scoped_lock lk(mu_);
        done_ = true;
      }
      cv_.notify_one();
      th_.join();
    }

   private:
    void loop() {
      for (;;) {
        Pending p;
        {
          std::unique_lock<std::mutex> lk(mu_);
          cv_.wait(lk, [&] { return done_ || !q_.empty(); });
          if (q_.empty()) return;
          p = std::move(q_.front());
          q_.pop_front();
        }
        try {
          d_.complete(p, p.ticket->wait());
        } catch (const std::exception& e) {
          p.sample->failed = true;
          p.sample->error = std::string("collector: ") + e.what();
        }
      }
    }
    LoadGen& d_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Pending> q_;
    bool done_ = false;
    std::thread th_;
  };

  Pending send(Sample& s, Clock::time_point due) {
    s.id = ++next_id_;
    const Clock::time_point sent = Clock::now();
    s.late_s = std::max(0.0, secs(due, sent));
    svc::AlignService::Admission adm = service_.submit(in_.probes[s.probe].spec);
    if (!adm.admitted()) s.rejected = true;
    if (tracer_.enabled()) tracer_.add("gen.late", s.id, 0, due, sent);
    return Pending{&s, std::move(adm.ticket), sent};
  }

  void complete(const Pending& p, const svc::QueryOutcome& o) {
    Sample& s = *p.sample;
    if (s.rejected) return;
    if (!o.ok) {
      s.failed = true;
      s.error = o.error;
      return;
    }
    const svc::QueryResult& r = o.result;
    if (r.overflow) {
      s.failed = true;
      s.error = "candidate buffer overflow (truncated queue)";
      return;
    }
    s.wait_s = r.wait_s;
    s.run_s = r.run_s;
    s.total_s = r.total_s;
    s.batch = r.batch_size;
    s.strategy = r.strategy;
    s.est_s = estimate(s.probe, r);
    book_.record(s.probe, r);
    if (tracer_.enabled()) {
      // Service spans are reconstructed from the result's own timings:
      // admission at `sent`, dispatch after wait_s, completion after total_s.
      const auto dispatched = p.sent + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(r.wait_s));
      const auto ended = p.sent + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(r.total_s));
      const std::uint64_t root = tracer_.add("svc.query", s.id, 0, p.sent, ended);
      tracer_.add("svc.wait", s.id, root, p.sent, dispatched);
      tracer_.add(svc::strategy_name(r.strategy), s.id, root, dispatched, ended);
    }
  }

  /// The scheduler's price for the strategy that actually ran.
  double estimate(std::size_t probe, const svc::QueryResult& r) const {
    const svc::Scheduler& sch = service_.scheduler();
    const svc::QuerySpec& q = in_.probes[probe].spec;
    const std::size_t m = q.query.size();
    const bool affine = q.scheme.affine();
    if (r.strategy == svc::StrategyKind::kDbScan) {
      return sch.db_estimate(m, r.db_fragments_aligned * db::DbConfig{}.fragment_len,
                             affine);
    }
    const std::size_t n = subject_of(in_, in_.probes[probe]).size();
    switch (r.strategy) {
      case svc::StrategyKind::kWavefront:
        return sch.wavefront_estimate(m, n, r.warm, affine);
      case svc::StrategyKind::kBlocked:
        return sch.blocked_estimate(m, n, r.warm, affine);
      case svc::StrategyKind::kBlockedMp:
        return sch.blocked_mp_estimate(m, n, affine);
      case svc::StrategyKind::kExact:
        return sch.exact_estimate(m, n, affine);
      default:
        return 0;
    }
  }

  svc::AlignService& service_;
  const Inputs& in_;
  AnswerBook& book_;
  Tracer& tracer_;
  std::uint64_t seed_;
  std::atomic<std::uint64_t> next_id_{0};
};

// ---------------------------------------------------------------------------
// Oracles (run after the timed phases; each distinct input checked once)

struct OracleReport {
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  std::size_t planted = 0;      ///< homologous db probes checked
  std::size_t planted_hit = 0;  ///< ... whose hits include their home window
  std::vector<std::string> notes;
};

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& f) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kProcs; ++t) {
    ts.emplace_back([&] {
      for (std::size_t i; (i = next++) < n;) f(i);
    });
  }
  for (auto& t : ts) t.join();
}

bool hits_home(const db::SubjectDb& sdb, const Probe& p,
               const std::vector<db::DbHit>& hits) {
  for (const db::DbHit& h : hits) {
    const db::Fragment& f = sdb.fragments()[h.fragment];
    if (static_cast<int>(f.seq_index) == p.home && f.begin <= p.home_begin + 150 &&
        p.home_begin < f.end) {
      return true;
    }
  }
  return false;
}

/// `known` holds heuristic_scan references already computed (the traced
/// run times that call as a layer probe and reuses its answer here).
OracleReport check_answers(
    const Inputs& in, const AnswerBook& book, const db::SubjectDb* sdb,
    const std::map<std::size_t, std::vector<Candidate>>& known = {}) {
  OracleReport rep;
  std::mutex mu;
  const auto& first = book.first();
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (first[i]) todo.push_back(i);
  }
  const auto fail = [&](std::size_t i, const std::string& what) {
    const std::scoped_lock lk(mu);
    ++rep.mismatches;
    if (rep.notes.size() < 8) rep.notes.push_back("probe " + std::to_string(i) + ": " + what);
  };
  const auto check = [&](std::size_t k) {
    const std::size_t i = todo[k];
    const Probe& p = in.probes[i];
    const Answer& a = *first[i];
    if (!p.spec.database.empty()) {
      const auto ref = db::brute_force_hits(*sdb, p.spec.query, p.spec.scheme,
                                            p.spec.min_score);
      if (ref != a.hits) fail(i, "db hits != brute_force_hits");
      if (p.home >= 0) {
        const bool home = hits_home(*sdb, p, a.hits);
        const std::scoped_lock lk(mu);
        ++rep.planted;
        rep.planted_hit += home ? 1 : 0;
      }
      return;
    }
    const Sequence& t = subject_of(in, p);
    if (p.spec.strategy == svc::StrategyKind::kExact) {
      const BestLocal ref = p.spec.scheme.affine()
                                ? testing::gotoh_best_ref(p.spec.query, t, p.spec.scheme)
                                : sw_best_score_linear(p.spec.query, t, p.spec.scheme);
      if (ref.score != a.best.score || ref.end_i != a.best.end_i ||
          ref.end_j != a.best.end_j) {
        fail(i, "exact best != reference best score");
      }
      return;
    }
    const auto it = known.find(i);
    const auto ref = it != known.end()
                         ? it->second
                         : heuristic_scan(p.spec.query, t, p.spec.scheme, p.spec.params);
    if (ref != a.candidates) fail(i, "candidate queue != heuristic_scan");
    // No heuristic candidate can outscore the optimal local alignment under
    // the query's gap model (the dense Gotoh reference where it fits).
    const int best = t.size() * p.spec.query.size() <= (1u << 22)
                         ? testing::gotoh_best_ref(p.spec.query, t, p.spec.scheme).score
                         : sw_best_score_linear(p.spec.query, t, p.spec.scheme).score;
    for (const Candidate& c : a.candidates) {
      if (c.score > best) {
        fail(i, "candidate scores above the optimal local alignment");
        break;
      }
    }
  };
  parallel_for(todo.size(), check);
  rep.checked = todo.size();
  return rep;
}

obs::Json oracle_json(const OracleReport& orc, const AnswerBook& book) {
  obs::Json oj = obs::Json::object();
  oj.set("distinct_checked", orc.checked);
  oj.set("mismatches", orc.mismatches);
  oj.set("inconsistent_repeats", book.inconsistent());
  oj.set("planted_hit", orc.planted_hit);
  oj.set("planted", orc.planted);
  obs::Json notes = obs::Json::array();
  for (const auto& n : orc.notes) notes.push(n);
  oj.set("notes", std::move(notes));
  return oj;
}

// ---------------------------------------------------------------------------
// Metrics output

/// The metrics of one run.  A metric that comes out non-finite (its
/// samples were failed queries, whose latency is infinite) is not written:
/// it is listed in `nonfinite()` and makes the run incorrect.
class Metrics {
 public:
  void set(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      nonfinite_.push_back(name);
      return;
    }
    obs::Json m = obs::Json::object();
    m.set("value", value);
    m.set("unit", unit);
    j_.set(name, std::move(m));
  }
  obs::Json& json() { return j_; }
  const std::vector<std::string>& nonfinite() const { return nonfinite_; }

 private:
  obs::Json j_ = obs::Json::object();
  std::vector<std::string> nonfinite_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

obs::Json fingerprint() {
  obs::Json f = obs::Json::object();
  f.set("simd_backend", simd::active_backend_name());
  f.set("db_bound", db::bound_batch_available() ? "avx2" : "scalar");
  f.set("dsm_backend", dsm::backend_name(dsm::default_backend()));
  f.set("build_type", PERFBENCH_BUILD_TYPE);
  f.set("git_describe", obs::build_version());
  f.set("nprocs", kProcs);
  f.set("workers", kWorkers);
  return f;
}

obs::Json tail_json(const perfbench::Tail& t) {
  obs::Json j = obs::Json::object();
  j.set("level", t.level);
  j.set("value", t.value);
  j.set("n", t.n);
  return j;
}

/// Open-loop tails go into the run record, each at the highest percentile
/// (up to its cap) with ten samples beyond it and with its sample count.
/// They are not end-to-end metrics: open-loop latency follows how fast the
/// host wakes parked cores, and spreads wider over seeds than any bound the
/// benchmark may set (perfbench/README.md, "Steadiness").
void record_tails(obs::Json& detail, const std::vector<double>& lat) {
  detail.set("latency_p95", tail_json(perfbench::tail(lat, 0.95)));
  detail.set("latency_p99", tail_json(perfbench::tail(lat, 0.99)));
  obs::Json pct = obs::Json::object();
  for (const auto& [name, q] : {std::pair{"p50", 0.5}, std::pair{"p90", 0.9},
                                std::pair{"p95", 0.95}, std::pair{"p99", 0.99},
                                std::pair{"max", 1.0}}) {
    pct.set(name, perfbench::quantile(lat, q));
  }
  detail.set("latency_percentiles_ms", std::move(pct));
}

std::vector<double> field_ms(const Phase& ph, double Sample::*f) {
  std::vector<double> v;
  for (const Sample& s : ph.samples) {
    if (s.ok()) v.push_back(s.*f * 1e3);
  }
  return v;
}

// ---------------------------------------------------------------------------
// Setup

/// Starts a service (service start plus every load_* call, until a query
/// can be admitted) and appends the time that took to `times_s`.
std::unique_ptr<svc::AlignService> timed_start(const Inputs& in,
                                               std::vector<double>& times_s) {
  const Clock::time_point t0 = Clock::now();
  auto s = start_service(in);
  times_s.push_back(secs(t0, Clock::now()));
  return s;
}

/// Saturates the service for a while before anything is timed: caches and
/// lazy set-up fill, and a host that parks idle cores has them running.
Phase warm_up(LoadGen& d, const Inputs& in) {
  return d.closed_loop(kClients, in.tiny ? 0.2 : 2.0, 0x3a);
}

// ---------------------------------------------------------------------------
// The untraced run: end-to-end metrics

struct RunTotals {
  std::size_t attempted = 0;
  std::size_t failed = 0;  ///< rejected + failed + expired + mismatches
  std::vector<std::string> errors;  ///< the first few failed queries' errors
};

obs::Json string_array(const std::vector<std::string>& v) {
  obs::Json j = obs::Json::array();
  for (const auto& e : v) j.push(e);
  return j;
}

obs::Json number_array(const std::vector<double>& v) {
  obs::Json j = obs::Json::array();
  for (double e : v) j.push(e);
  return j;
}

/// Adds a phase's queries to the totals.  Every query that was rejected at
/// admission or failed (node-program error, expired deadline, overflowed
/// candidate buffer) is an error.
void count(RunTotals& t, const Phase& ph) {
  t.attempted += ph.samples.size();
  t.failed += ph.failed() + ph.rejected();
  for (const Sample& s : ph.samples) {
    if (t.errors.size() >= 5) break;
    if (s.failed) t.errors.push_back(s.error);
    else if (s.rejected) t.errors.push_back("rejected at admission");
  }
}

/// Records the generator's lateness over `ph`: the p99 of how late its
/// queries were sent.  A generator later than a fifth of the workload's
/// latency limit under-offered its load, and the run is not valid.
double record_lateness(obs::Json& detail, const Phase& ph, double limit_ms) {
  std::vector<double> late;
  for (const Sample& s : ph.samples) late.push_back(s.late_s * 1e3);
  const double p99 = perfbench::quantile(late, 0.99);
  detail.set("gen_late_ms_p99", p99);
  detail.set("valid", p99 <= limit_ms / 5);
  return p99;
}

/// Fills the result object.  A run is correct when every query it counts was
/// answered (see count()), every answer matched its oracle and its repeats,
/// and every metric is finite.
void finish(obs::Json& out, Metrics& m, obs::Json& detail, const RunTotals& tot,
            const OracleReport& orc, const AnswerBook& book) {
  detail.set("oracle", oracle_json(orc, book));
  detail.set("error_frac", ratio(static_cast<double>(tot.failed),
                                 static_cast<double>(tot.attempted)));
  detail.set("query_errors", string_array(tot.errors));
  detail.set("nonfinite_metrics", string_array(m.nonfinite()));
  out.set("correct", tot.failed == 0 && m.nonfinite().empty());
  out.set("attempted", tot.attempted);
  out.set("failed", tot.failed);
  out.set("metrics", std::move(m.json()));
  out.set("detail", std::move(detail));
}

void append(Phase& into, Phase&& ph) {
  for (auto& smp : ph.samples) into.samples.push_back(std::move(smp));
}

int run_untraced(const Inputs& in, std::uint64_t seed, double seconds,
                 obs::Json& out) {
  Metrics m;
  obs::Json detail = obs::Json::object();
  RunTotals tot;
  const std::size_t setup_min = in.tiny ? 2 : 7;
  std::vector<double> setup_s;
  const auto owned = timed_start(in, setup_s);
  svc::AlignService& service = *owned;
  AnswerBook book(in.probes.size());
  Tracer off(false);
  LoadGen d(service, in, book, off, seed);
  count(tot, warm_up(d, in));

  // The run is cut into windows of about 1.5 s that each take one slice of
  // every phase: open loop at the nominal rate, one client alone, the
  // saturated closed loop, and more timed setups, so drift falls on every
  // phase alike.
  const int windows = in.tiny ? 2 : std::max(8, static_cast<int>(seconds / 1.5));
  const double slice_s = 0.3 * seconds / windows;
  std::uint64_t tag = 0x100;
  // Each call adds one timed start, and cheap setups as many more (up to 30)
  // as fit in 50 ms, so a sub-millisecond setup is a median over hundreds of
  // starts spread across the run rather than over a handful.
  const auto more_setup = [&] {
    const Clock::time_point t0 = Clock::now();
    for (int k = 0; k < 30 && (k == 0 || secs(t0, Clock::now()) < 0.05); ++k) {
      timed_start(in, setup_s).reset();
    }
  };

  Phase nom;
  std::vector<double> win_solo, win_qps;
  for (int w = 0; w < windows; ++w) {
    service.drain();
    append(nom, d.open_loop(in.def.nominal_rate, slice_s, ++tag));
    // Peak memory after a fixed amount of work, before the throwaway setups.
    if (w == 0) m.set("peak_rss_mb", peak_rss_mb(), "MB");
    service.drain();
    const Phase solo = d.closed_loop(1, slice_s, ++tag);
    count(tot, solo);
    win_solo.push_back(median(solo.latencies_ms()));
    double elapsed = 0;
    const Phase sat = d.closed_loop(kClients, slice_s, ++tag, &elapsed);
    count(tot, sat);
    win_qps.push_back(static_cast<double>(sat.samples.size()) / elapsed);
    more_setup();
  }
  service.drain();
  count(tot, nom);
  // Interference from the host only ever adds latency and lowers throughput,
  // and on a shared host it comes in stretches that can cover most of a run,
  // so each figure is the run's best window (the lowest window median
  // latency, the highest window rate); a slower program slows every window.
  m.set("solo_latency_p50_ms", *std::min_element(win_solo.begin(), win_solo.end()), "ms");
  m.set("throughput_qps", *std::max_element(win_qps.begin(), win_qps.end()), "1/s");
  detail.set("window_solo_latency_p50_ms", number_array(win_solo));
  detail.set("window_throughput_qps", number_array(win_qps));
  // The open-loop phase is recorded, not gated (perfbench/README.md).
  const std::vector<double> lat = nom.latencies_ms();
  detail.set("nominal_rate_qps", in.def.nominal_rate);
  detail.set("nominal_latency_p50_ms", median(lat));
  record_tails(detail, lat);
  record_lateness(detail, nom, in.def.limit_ms);
  while (setup_s.size() < setup_min) more_setup();
  m.set("setup_s", median(setup_s), "s");
  detail.set("setup_starts", setup_s.size());

  std::unique_ptr<db::SubjectDb> sdb;
  if (!in.db_seqs.empty()) sdb = std::make_unique<db::SubjectDb>(in.db_seqs);
  const OracleReport orc = check_answers(in, book, sdb.get());
  tot.failed += orc.mismatches + book.inconsistent();
  finish(out, m, detail, tot, orc, book);
  return 0;
}

// ---------------------------------------------------------------------------
// The traced run: per-layer metrics from spans around calls into each layer

template <class F>
std::vector<double> time_reps(Tracer& tr, const char* name, std::uint64_t& id,
                              int min_reps, int max_reps, double budget_s, F&& f) {
  std::vector<double> t;
  const Clock::time_point t0 = Clock::now();
  while (static_cast<int>(t.size()) < min_reps ||
         (static_cast<int>(t.size()) < max_reps && secs(t0, Clock::now()) < budget_s)) {
    const Clock::time_point a = Clock::now();
    f();
    const Clock::time_point b = Clock::now();
    tr.add(name, ++id, 0, a, b);
    t.push_back(secs(a, b));
  }
  return t;
}

/// Protocol counters of direct calls on one cluster: the per-job node
/// counters of the jobs they ran, and the cluster's wire traffic.
struct DsmCount {
  dsm::NodeStats node;
  std::uint64_t msgs = 0, bytes = 0;

  static std::pair<std::uint64_t, std::uint64_t> traffic(const dsm::Cluster& cl) {
    std::uint64_t m = 0, b = 0;
    for (const auto& c : cl.traffic_snapshot()) {
      m += c.total_messages();
      b += c.total_bytes();
    }
    return {m, b};
  }
  /// Runs `f`; when it dispatched a job, adds that job's node counters.
  template <class F>
  void around(dsm::Cluster& cl, F&& f) {
    const auto [m0, b0] = traffic(cl);
    f();
    const auto [m1, b1] = traffic(cl);
    msgs += m1 - m0;
    bytes += b1 - b0;
    if (m1 != m0) node += cl.stats().total_node();
  }
};

/// The pair each workload's heuristic layers run on: db_search's probe
/// against its 256-base home window, pair_service's first linear auto probe
/// against its subject.
std::pair<std::size_t, Sequence> core_pair(const Inputs& in) {
  if (!in.db_seqs.empty()) {
    const Probe& p = in.probes[0];
    const Sequence& src = in.db_seqs[static_cast<std::size_t>(p.home)];
    const std::size_t b = p.home_begin >= 53 ? p.home_begin - 53 : 0;
    return {0, src.slice(b, std::min(src.size(), b + 256))};
  }
  const std::size_t i = in.probes.size() > 2 ? 2 : 0;
  return {i, subject_of(in, in.probes[i])};
}

int run_traced(const Inputs& in, std::uint64_t seed, double seconds,
               const std::string& spans_path, obs::Json& out) {
  Metrics m;
  obs::Json detail = obs::Json::object();
  RunTotals tot;
  std::vector<double> setup_s;
  const auto owned = timed_start(in, setup_s);
  svc::AlignService& service = *owned;
  AnswerBook book(in.probes.size());
  Tracer tr(true), off(false);
  LoadGen plain(service, in, book, off, seed);
  LoadGen traced(service, in, book, tr, seed);
  count(tot, warm_up(plain, in));

  // Untraced and traced halves alternate, so host drift falls on both.
  Phase untr, trc;
  const simd::StripedCounters sc0 = simd::striped_counters();
  const double rate = in.def.nominal_rate;
  for (int half = 0; half < 2; ++half) {
    append(untr, plain.open_loop(rate, 0.1 * seconds, 0x20 + half));
    append(trc, traced.open_loop(
                    rate, std::max(0.15 * seconds, in.tiny ? 0.0 : 505.0 / rate),
                    0x30 + half));
  }
  service.drain();
  const simd::StripedCounters sc1 = simd::striped_counters();
  count(tot, untr);
  count(tot, trc);

  // -- svc: from the traced queries' own timings
  const auto trc_ok = static_cast<double>(trc.samples.size() - trc.rejected() - trc.failed());
  m.set("svc.wait_ms_p50", median(field_ms(trc, &Sample::wait_s)), "ms");
  m.set("svc.wait_ms_tail", perfbench::tail(field_ms(trc, &Sample::wait_s)).value, "ms");
  m.set("svc.run_ms_p50", median(field_ms(trc, &Sample::run_s)), "ms");
  std::vector<double> est_ratio;
  double batch_sum = 0;
  std::map<std::string, double> share;
  for (const Sample& smp : trc.samples) {
    if (!smp.ok()) continue;
    batch_sum += static_cast<double>(smp.batch);
    share[svc::strategy_name(smp.strategy)] += 1;
    if (smp.run_s > 0) est_ratio.push_back(smp.est_s / smp.run_s);
  }
  m.set("svc.batch_mean", ratio(batch_sum, trc_ok), "count");
  for (const char* k : {"wavefront", "blocked", "blocked_mp", "exact", "db_scan"}) {
    m.set(std::string("svc.strategy_share.") + k, ratio(share[k], trc_ok), "frac");
  }
  m.set("svc.reject_frac",
        ratio(static_cast<double>(trc.rejected()), static_cast<double>(trc.samples.size())),
        "frac");
  m.set("svc.sched_est_ratio_p50", median(est_ratio), "ratio");

  // -- simd counters of the service traffic
  const double builds = static_cast<double>(sc1.profile_builds - sc0.profile_builds);
  const double hits = static_cast<double>(sc1.profile_hits - sc0.profile_hits);
  const double queries = static_cast<double>(untr.samples.size() + trc.samples.size());
  m.set("simd.profile_hit_ratio", ratio(hits, hits + builds), "frac");
  m.set("simd.overflow_reruns",
        ratio(static_cast<double>(sc1.overflow_reruns - sc0.overflow_reruns), queries),
        "count");

  // -- gen / trace health
  m.set("gen.late_ms_p99", record_lateness(detail, trc, in.def.limit_ms), "ms");
  const double p50_plain = median(untr.latencies_ms());
  const double p50_traced = median(trc.latencies_ms());
  m.set("trace.overhead_frac", ratio(p50_traced - p50_plain, p50_plain), "frac");

  // -- direct layer calls on the workload's own shapes
  const double budget = in.tiny ? 0.05 : 0.03 * seconds;
  std::uint64_t id = 1u << 30;
  dsm::Cluster cl(kProcs);
  std::size_t direct_mismatch = 0;
  const auto [pi, t] = core_pair(in);
  const Probe& cp = in.probes[pi];
  const Sequence& s = cp.spec.query;
  const ScoreScheme scheme = cp.spec.scheme;
  const HeuristicParams params = cp.spec.params;
  std::vector<Candidate> ref;
  const auto heur_t = time_reps(tr, "sw.heuristic_scan", id, 1, 50, budget, [&] {
    ref = heuristic_scan(s, t, scheme, params);
  });
  const double heur_s = median(heur_t);
  const double cells = static_cast<double>(s.size()) * static_cast<double>(t.size());
  m.set("sw.heuristic_s", heur_s, "s");
  m.set("sw.heuristic_gcups", cells / heur_s / 1e9, "GCUPS");

  core::BlockedConfig bc;
  bc.nprocs = kProcs;
  bc.mult_w = bc.mult_h = 2;  // the service's decomposition
  bc.scheme = scheme;
  bc.params = params;
  bc.cluster = &cl;
  DsmCount dd;
  const auto blocked_t = time_reps(tr, "core.blocked", id, 1, 50, budget, [&] {
    dd.around(cl, [&] {
      const core::StrategyResult r = core::blocked_align(s, t, bc);
      if (r.candidates != ref || r.overflow) ++direct_mismatch;
    });
  });
  const double blocked_calls = static_cast<double>(blocked_t.size());
  m.set("core.blocked_s", median(blocked_t), "s");
  m.set("core.parallel_eff", heur_s / (kProcs * median(blocked_t)), "frac");
  core::WavefrontConfig wc;
  wc.nprocs = kProcs;
  wc.scheme = scheme;
  wc.params = params;
  wc.cluster = &cl;
  m.set("core.wavefront_s", median(time_reps(tr, "core.wavefront", id, 1, 50, budget, [&] {
          const core::StrategyResult r = core::wavefront_align(s, t, wc);
          if (r.candidates != ref || r.overflow) ++direct_mismatch;
        })), "s");
  core::BlockedConfig bmp = bc;
  bmp.cluster = nullptr;
  std::uint64_t mp_msgs = 0, mp_bytes = 0;
  const auto mp_t = time_reps(tr, "core.blocked_mp", id, 1, 50, budget, [&] {
    const core::MpStrategyResult r = core::blocked_align_mp(s, t, bmp);
    if (r.candidates != ref) ++direct_mismatch;
    mp_msgs += r.traffic.total_messages();
    mp_bytes += r.traffic.total_bytes();
  });
  m.set("core.blocked_mp_s", median(mp_t), "s");
  m.set("mp.messages", ratio(static_cast<double>(mp_msgs), static_cast<double>(mp_t.size())), "count");
  m.set("mp.bytes", ratio(static_cast<double>(mp_bytes), static_cast<double>(mp_t.size())), "bytes");
  m.set("mp.world_us", 1e6 * median(time_reps(tr, "mp.world", id, 20, 200, budget, [&] {
          mp::World w(kProcs);
          w.run([](mp::Comm&) {});
        })), "us");
  m.set("dsm.job_us", 1e6 * median(time_reps(tr, "dsm.job", id, 20, 500, budget, [&] {
          cl.run([](dsm::Node&) {});
        })), "us");

  // -- simd kernels at the probe x fragment and the long exact-query shape
  const Sequence& long_t = in.db_seqs.empty() ? subject_of(in, cp) : in.db_seqs.front();
  const Sequence frag_s = cp.spec.query.slice(0, std::min<std::size_t>(150, cp.spec.query.size()));
  const Sequence frag_t = long_t.slice(0, std::min<std::size_t>(256, long_t.size()));
  const Sequence long_s = cp.spec.query.slice(0, std::min<std::size_t>(250, cp.spec.query.size()));
  const Sequence long_tt = long_t.slice(0, std::min<std::size_t>(4000, long_t.size()));
  const auto gcups = [&](const char* name, const Sequence& a, const Sequence& b) {
    const auto ts = time_reps(tr, name, id, 20, 2000, budget, [&] {
      const BestLocal r = sw_best_score_linear(a, b);
      (void)r;
    });
    return static_cast<double>(a.size()) * static_cast<double>(b.size()) / median(ts) / 1e9;
  };
  m.set("simd.frag_gcups", gcups("simd.frag", frag_s, frag_t), "GCUPS");
  m.set("simd.long_gcups", gcups("simd.long", long_s, long_tt), "GCUPS");

  // -- db: build, shard, filter, scan and query on the workload's database
  // (pair_service: a database of its own subjects probed the db_search way,
  // so the layer's cost is known at its shapes too)
  std::vector<Sequence> dseqs = in.db_seqs;
  std::vector<Probe> dprobes;
  if (dseqs.empty()) {
    dseqs = in.subjects;
    Rng drng(seed ^ 0xdbull);
    dprobes = make_db_probes(dseqs, in.tiny ? 8 : 64, 150, drng);
  } else {
    dprobes.assign(in.probes.begin(), in.probes.begin() + static_cast<long>(std::min<std::size_t>(64, in.probes.size())));
  }
  std::unique_ptr<db::SubjectDb> sdb;
  m.set("db.build_s", median(time_reps(tr, "db.build", id, 1, 3, budget, [&] {
          sdb = std::make_unique<db::SubjectDb>(dseqs);
        })), "s");
  db::DbShards shards;
  const Clock::time_point sh0 = Clock::now();
  shards = db::DbShards(cl, *sdb);
  tr.add("db.shard", ++id, 0, sh0, Clock::now());
  m.set("db.shard_s", secs(sh0, Clock::now()), "s");
  std::vector<double> f_us, s_us, q_us;
  double scanned = 0, rejected = 0, resolved = 0, forwarded = 0, planted = 0, planted_hit = 0;
  DsmCount dq;
  const ScoreScheme dscheme{};
  const Clock::time_point db0 = Clock::now();
  // Every probe once, then repeats while the budget lasts (at most four
  // passes); the ratios count the first pass only.
  std::size_t n_db = 0;
  for (; n_db < dprobes.size() * 4 &&
         (n_db < dprobes.size() || secs(db0, Clock::now()) < 3 * budget);
       ++n_db) {
    const Probe& p = dprobes[n_db % dprobes.size()];
    const std::uint64_t qid = ++id;
    Clock::time_point a = Clock::now();
    const db::SubjectDb::Filtration f = sdb->filter(p.spec.query, dscheme, in.min_score);
    Clock::time_point b = Clock::now();
    tr.add("db.filter", qid, 0, a, b);
    f_us.push_back(1e6 * secs(a, b));
    a = Clock::now();
    const db::SubjectDb::ScanResult sr = sdb->scan(p.spec.query, dscheme, in.min_score);
    b = Clock::now();
    tr.add("db.scan", qid, 0, a, b);
    s_us.push_back(1e6 * secs(a, b));
    a = Clock::now();
    simd::warm_query_profile(p.spec.query.data(), p.spec.query.size(),
                             simd::ScoreParams{dscheme.match, dscheme.mismatch,
                                               dscheme.gap, dscheme.gap_open});
    db::DbQueryResult qr;
    dq.around(cl, [&] {
      qr = db::db_query(cl, *sdb, shards, p.spec.query, dscheme, in.min_score);
    });
    b = Clock::now();
    tr.add("db.query", qid, 0, a, b);
    q_us.push_back(1e6 * secs(a, b));
    if (f.survivors.size() != sr.forwarded.size() + sr.resolved.size()) ++direct_mismatch;
    if (n_db < dprobes.size()) {
      scanned += static_cast<double>(qr.fragments_scanned);
      rejected += static_cast<double>(qr.fragments_rejected);
      resolved += static_cast<double>(qr.fragments_resolved);
      forwarded += static_cast<double>(qr.fragments_aligned);
      if (p.home >= 0) {
        planted += 1;
        planted_hit += hits_home(*sdb, p, qr.hits) ? 1 : 0;
      }
    }
  }
  const double nprobes = static_cast<double>(dprobes.size());
  m.set("db.filter_us", median(f_us), "us");
  m.set("db.scan_us", median(s_us), "us");
  m.set("db.query_us", median(q_us), "us");
  m.set("db.query_self_us", median(q_us) - median(s_us), "us");
  m.set("db.filtration_ratio", ratio(rejected, scanned), "frac");
  m.set("db.resolve_ratio", ratio(resolved, resolved + forwarded), "frac");
  m.set("db.dp_per_query", ratio(forwarded, nprobes), "count");
  m.set("db.planted_hit_ratio", ratio(planted_hit, planted), "frac");

  // -- dsm: per db_query on db_search, per blocked solve elsewhere
  const DsmCount& dsm_src = in.db_seqs.empty() ? dd : dq;
  const double per = in.db_seqs.empty() ? blocked_calls : static_cast<double>(n_db);
  const dsm::NodeStats& n = dsm_src.node;
  m.set("dsm.read_faults", ratio(static_cast<double>(n.read_faults), per), "count");
  m.set("dsm.cache_hits", ratio(static_cast<double>(n.cache_hits), per), "count");
  m.set("dsm.hit_ratio", ratio(static_cast<double>(n.cache_hits),
                               static_cast<double>(n.cache_hits + n.read_faults)), "frac");
  m.set("dsm.diffs", ratio(static_cast<double>(n.diffs_sent), per), "count");
  m.set("dsm.diff_bytes", ratio(static_cast<double>(n.diff_bytes), per), "bytes");
  m.set("dsm.messages", ratio(static_cast<double>(dsm_src.msgs), per), "count");
  m.set("dsm.bytes", ratio(static_cast<double>(dsm_src.bytes), per), "bytes");
  m.set("dsm.lock_acquires", ratio(static_cast<double>(n.lock_acquires), per), "count");
  m.set("dsm.cv_waits", ratio(static_cast<double>(n.cv_waits), per), "count");
  m.set("dsm.barriers", ratio(static_cast<double>(n.barriers), per), "count");
  cl.stop();

  // -- answers
  std::unique_ptr<db::SubjectDb> odb;
  if (!in.db_seqs.empty()) odb = std::move(sdb);
  std::map<std::size_t, std::vector<Candidate>> known;
  if (in.db_seqs.empty()) known.emplace(pi, ref);
  const OracleReport orc = check_answers(in, book, odb.get(), known);
  tot.failed += orc.mismatches + book.inconsistent() + direct_mismatch;
  m.set("error_frac", ratio(static_cast<double>(tot.failed), static_cast<double>(tot.attempted)),
        "frac");
  detail.set("direct_call_mismatches", direct_mismatch);
  detail.set("spans", tr.size());
  if (!spans_path.empty() && !tr.write(spans_path)) {
    std::cerr << "perfbench: cannot write spans to " << spans_path << "\n";
    return 1;
  }
  finish(out, m, detail, tot, orc, book);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, size = "full", spans_path;
  std::uint64_t seed = 1;
  double seconds = 20;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::stoull(v);
    else if (k == "--seconds") seconds = std::stod(v);
    else if (k == "--trace") trace = std::stoi(v);
    else if (k == "--size") size = v;
    else if (k == "--spans") spans_path = v;
    else {
      std::cerr << "perfbench: unknown argument " << k << "\n";
      return 2;
    }
  }
  const WorkloadDef* def = nullptr;
  for (const auto& w : workload_defs()) {
    if (w.name == workload) def = &w;
  }
  if (def == nullptr) {
    std::cerr << "perfbench: unknown workload '" << workload << "'\n";
    return 2;
  }
  try {
    const Inputs in = make_inputs(*def, seed, size == "tiny");
    obs::Json out = obs::Json::object();
    int rc = 0;
    rc = trace ? run_traced(in, seed, seconds, spans_path, out)
               : run_untraced(in, seed, seconds, out);
    out.set("fingerprint", fingerprint());
    std::cout << out.dump(0) << std::endl;
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}

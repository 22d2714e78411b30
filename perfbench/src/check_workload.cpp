// check_cold / check_warm: closed-loop check traffic from 2 client
// connections (one request in flight on each) against a spawned
// `ssm serve`, over a unix socket.
//
//   check_cold — every request is a fresh fuzz::random_test program
//     (2–4 procs, 1–4 ops per proc, 3 locations, templates on), new to the
//     server by canonical key; a seeded 1 in 4 asks for the encode backend.
//   check_warm — the server preloads a seeded warm set; every timed request
//     is an isomorphic clone (processors, locations and values renamed) of
//     a warm-set program, so every cell is a cache hit.
//
// The traced run repeats the live run, then replays the same request
// stream in-process through the calls CheckService::handle_checks makes,
// against a CheckService preloaded exactly like the live server, with a
// span around each call.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>

#include "checker/witness.hpp"
#include "checker/witness_verifier.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "fuzz/generator.hpp"
#include "lattice/inclusion.hpp"
#include "litmus/canonical.hpp"
#include "litmus/emit.hpp"
#include "litmus/parser.hpp"
#include "models/registry.hpp"
#include "proc.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "solve/portfolio.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using ssm::litmus::LitmusTest;

constexpr std::uint64_t kMaxNodes = 50'000;
constexpr int kConnections = 2;
constexpr std::size_t kWarmSet = 256;       ///< warm-set programs
constexpr std::size_t kClonesPerWarm = 8;   ///< distinct clones of each
constexpr std::size_t kWarmupRequests = 64;  ///< cold, before timing
constexpr std::size_t kBackendSample = 24;  ///< cold cross-backend re-checks
/// Server starts timed per run; setup_s is fast_time over them.  A warm start
/// solves a whole warm set (about 0.5 s at 1 lane).
constexpr int kSetupRepeats = 9;

ssm::fuzz::GeneratorSpec request_spec() {
  ssm::fuzz::GeneratorSpec spec;
  spec.min_procs = 2;
  spec.max_procs = 4;
  spec.min_ops = 1;
  spec.max_ops = 4;
  spec.locs = 3;
  return spec;  // shape_percent keeps its default: templates on
}

struct Request {
  bool encode = false;
  std::string frame;  ///< the wire frame, '\n'-terminated
};

std::string make_frame(std::size_t id, const std::string& program,
                       bool encode) {
  std::string f = "{\"op\": \"check\", \"id\": \"" + std::to_string(id) +
                  "\", \"program\": ";
  ssm::common::json::append_quoted(f, program);
  if (encode) f += ", \"backend\": \"encode\"";
  f += "}\n";
  return f;
}

/// Fresh random programs, deduplicated by canonical key against `seen`.
std::vector<LitmusTest> draw_programs(ssm::Rng& rng,
                                      std::set<std::string>& seen,
                                      std::size_t n, std::size_t& counter) {
  std::vector<LitmusTest> out;
  while (out.size() < n) {
    LitmusTest t = ssm::fuzz::random_test(request_spec(), rng,
                                          "r" + std::to_string(counter++));
    if (seen.insert(ssm::litmus::canonical_key(t)).second) {
      out.push_back(std::move(t));
    }
  }
  return out;
}

/// A seeded isomorphic clone: processors and locations permuted and
/// renamed, every written value shifted by a per-location offset (reads
/// follow their writer; reads of the initial value stay 0).
LitmusTest make_clone(const LitmusTest& t, ssm::Rng& rng, std::string name) {
  const auto& h = t.hist;
  const std::size_t procs = h.num_processors();
  const std::size_t locs = h.num_locations();
  std::vector<ssm::ProcId> pmap(procs);
  std::iota(pmap.begin(), pmap.end(), ssm::ProcId{0});
  rng.shuffle(pmap);
  std::vector<ssm::LocId> lmap(locs);
  std::iota(lmap.begin(), lmap.end(), ssm::LocId{0});
  rng.shuffle(lmap);
  std::vector<ssm::Value> offset(locs);
  for (auto& o : offset) o = static_cast<ssm::Value>(1 + rng.below(40));
  ssm::history::SymbolTable symbols;
  for (std::size_t p = 0; p < procs; ++p) {
    symbols.intern_processor("t" + std::to_string(10 * p + rng.below(10)));
  }
  for (std::size_t l = 0; l < locs; ++l) {
    symbols.intern_location("m" + std::to_string(10 * l + rng.below(10)));
  }
  LitmusTest out;
  out.name = std::move(name);
  out.hist = ssm::history::SystemHistory(std::move(symbols));
  for (std::size_t pos = 0; pos < procs; ++pos) {
    const auto orig = static_cast<ssm::ProcId>(
        std::find(pmap.begin(), pmap.end(), pos) - pmap.begin());
    for (const ssm::OpIndex i : h.processor_ops(orig)) {
      const auto& src = h.op(i);
      ssm::history::Operation op;
      op.kind = src.kind;
      op.label = src.label;
      op.proc = static_cast<ssm::ProcId>(pos);
      op.loc = lmap[src.loc];
      const ssm::Value shift = offset[src.loc];
      const auto read_value = [&] {
        return h.writer_of(i) == ssm::kNoOp ? ssm::kInitialValue
                                            : src.read_value() + shift;
      };
      if (src.kind == ssm::OpKind::ReadModifyWrite) {
        op.value = src.value + shift;
        op.rmw_read = read_value();
      } else if (src.is_write()) {
        op.value = src.value + shift;
      } else {
        op.value = read_value();
      }
      out.hist.append(op);
    }
  }
  return out;
}

std::set<std::string> corpus_keys(const std::string& dir) {
  std::set<std::string> keys;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() != ".litmus") continue;
    std::ifstream in(e.path());
    std::ostringstream text;
    text << in.rdbuf();
    for (const auto& t : ssm::litmus::parse_suite(text.str())) {
      keys.insert(ssm::litmus::canonical_key(t));
    }
  }
  return keys;
}

// ---------------------------------------------------------------------------
// Response scanning (the serializer's fixed layout)
// ---------------------------------------------------------------------------

/// Index one past the JSON object that opens at s[open] ('{').
std::size_t object_end(const std::string& s, std::size_t open) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = open; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}' && --depth == 0) {
      return i + 1;
    }
  }
  throw std::runtime_error("unterminated JSON object");
}

std::uint64_t number_after(const std::string& s, std::string_view key,
                           std::size_t from = 0) {
  const std::size_t at = s.find(key, from);
  if (at == std::string::npos) {
    throw std::runtime_error("response lacks " + std::string(key));
  }
  return std::stoull(s.substr(at + key.size(), 24));
}

std::string string_after(const std::string& s, std::string_view key,
                         std::size_t from, std::size_t to) {
  const std::size_t at = s.find(key, from);
  if (at == std::string::npos || at >= to) {
    throw std::runtime_error("result lacks " + std::string(key));
  }
  const std::size_t start = at + key.size();
  return s.substr(start, s.find('"', start) - start);
}

enum Verdict : int { kForbidden = 0, kAllowed = 1, kInconclusive = 2 };

int verdict_code(ssm::service::CachedVerdict::Status s) {
  using Status = ssm::service::CachedVerdict::Status;
  return s == Status::Allowed     ? kAllowed
         : s == Status::Forbidden ? kForbidden
                                  : kInconclusive;
}

struct Checked {
  std::vector<int> verdicts;
  std::string error;  ///< empty when every check passed
};

/// The output checks of one check response against the program as sent:
/// ok frame, one result per model in order, every allowed witness passes
/// checker::verify_witness, the verdict vector respects the Figure 5
/// containments.
Checked check_response(const std::string& resp, const LitmusTest& sent,
                       const std::vector<std::string>& names) {
  Checked out;
  try {
    if (resp.find("\"ok\": true") == std::string::npos) {
      out.error = "error response: " + resp.substr(0, 200);
      return out;
    }
    std::size_t pos = resp.find("\"results\": [");
    if (pos == std::string::npos) throw std::runtime_error("no results");
    for (const std::string& name : names) {
      const std::size_t open = resp.find('{', pos);
      const std::size_t end = object_end(resp, open);
      if (string_after(resp, "\"model\": \"", open, end) != name) {
        throw std::runtime_error("result order differs at " + name);
      }
      const std::string v = string_after(resp, "\"verdict\": \"", open, end);
      if (v == "allowed") {
        const std::size_t w = resp.find("\"witness\": {", open);
        if (w == std::string::npos || w >= end) {
          throw std::runtime_error(name + ": allowed without witness");
        }
        const std::size_t wopen = w + 12 - 1;
        const auto witness = ssm::checker::witness_from_json(
            std::string_view(resp).substr(wopen,
                                          object_end(resp, wopen) - wopen));
        if (const auto err = ssm::checker::verify_witness(sent.hist, witness)) {
          throw std::runtime_error(name + ": witness rejected: " + *err);
        }
        out.verdicts.push_back(kAllowed);
      } else if (v == "forbidden") {
        out.verdicts.push_back(kForbidden);
      } else if (v == "inconclusive") {
        out.verdicts.push_back(kInconclusive);
      } else {
        throw std::runtime_error(name + ": verdict '" + v + "'");
      }
      pos = end;
    }
    bool labeled = false;
    for (const auto& op : sent.hist.operations()) labeled |= op.is_labeled();
    const auto index = [&](std::string_view n) {
      return static_cast<std::size_t>(
          std::find(names.begin(), names.end(), n) - names.begin());
    };
    for (const auto& e : ssm::lattice::figure5_containments()) {
      if (e.unlabeled_only && labeled) continue;
      const std::size_t s = index(e.stronger);
      const std::size_t w = index(e.weaker);
      if (s >= names.size() || w >= names.size()) continue;
      if (out.verdicts[s] == kAllowed && out.verdicts[w] == kForbidden) {
        throw std::runtime_error(std::string("containment ") + e.stronger +
                                 " <= " + e.weaker + " violated");
      }
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Live run
// ---------------------------------------------------------------------------

struct Sample {
  bool transport_error = false;
  double latency_us = 0;
  double handle_us = 0;  ///< meta.latency_us
  double finished_s = 0;
  std::uint64_t solved = 0;
  std::uint64_t results_hash = 0;  ///< the results array, id and meta excluded
};

std::string stats_snapshot(LineClient& c) {
  const std::string resp = c.call("{\"op\": \"stats\"}\n");
  const std::size_t at = resp.find("\"stats\": ");
  if (at == std::string::npos) throw std::runtime_error("bad stats response");
  const std::size_t open = at + 9;
  return resp.substr(open, object_end(resp, open) - open);
}

struct ServerProcess {
  std::unique_ptr<Child> child;
  std::vector<double> setup_s;
  std::string flags;
};

/// Starts the server once per entry of `preloads`, timing each start
/// through its preload until `ping` answers; keeps the last one running.
ServerProcess start_server(const RunOptions& o, const std::string& sock,
                           const std::vector<std::string>& preloads,
                           std::size_t capacity) {
  const auto argv_for = [&](const std::string& preload) {
    std::vector<std::string> argv = {
        o.ssm,   "--jobs",   std::to_string(o.jobs), "--max-nodes",
        std::to_string(kMaxNodes), "serve", "--socket", sock, "--preload",
        preload};
    if (capacity != 0) {
      argv.push_back("--cache-capacity");
      argv.push_back(std::to_string(capacity));
    }
    return argv;
  };
  ServerProcess s;
  const std::vector<std::string> live = argv_for(preloads.back());
  for (std::size_t i = 1; i < live.size(); ++i) {
    s.flags += (i > 1 ? " " : "") + live[i];
  }
  for (std::size_t k = 0; k < preloads.size(); ++k) {
    fs::remove(sock);
    const auto t0 = Clock::now();
    auto child =
        std::make_unique<Child>(argv_for(preloads[k]), o.work + "/server.log");
    LineClient ping(sock, 120);
    if (ping.call("{\"op\": \"ping\"}\n").find("\"ok\": true") ==
        std::string::npos) {
      throw std::runtime_error("server did not answer ping");
    }
    s.setup_s.push_back(seconds_since(t0));
    if (k + 1 < preloads.size()) {
      ping.call("{\"op\": \"shutdown\"}\n");
      if (child->wait() != 0) throw std::runtime_error("server exit != 0");
    } else {
      s.child = std::move(child);
    }
  }
  return s;
}

/// Stores what a check response says about itself in `s`.
void record_response(Sample& s, const std::string& resp) {
  const std::size_t meta = resp.rfind("\"meta\": {");
  const std::size_t results = resp.find("\"results\": [");
  if (meta == std::string::npos || results == std::string::npos ||
      results > meta) {
    return;
  }
  try {
    s.handle_us =
        static_cast<double>(number_after(resp, "\"latency_us\": ", meta));
    s.solved = number_after(resp, "\"solved\": ", meta);
  } catch (const std::exception&) {
    s.solved = ~std::uint64_t{0};  // the output checks reject it
  }
  s.results_hash = ssm::service::fnv1a64(
      std::string_view(resp).substr(results, meta - results));
}

/// Runs the closed loop over `reqs` (request i sends reqs[i % size]) until
/// `seconds` pass or `limit` requests were taken.  Stores the response
/// text of the first occurrence of each distinct request in `first`.
///
/// One thread drives every connection and polls them without blocking, so
/// a response is taken as soon as it arrives and no client thread waits to
/// be woken: the latency is the server's, not the host scheduler's.  The
/// polling thread takes one core; the server needs three.
std::vector<Sample> closed_loop(const std::string& sock,
                                const std::vector<Request>& reqs,
                                std::size_t limit, double seconds,
                                std::vector<std::string>& first,
                                double& elapsed) {
  std::vector<Sample> samples(limit);
  first.assign(reqs.size(), {});
  struct Connection {
    std::unique_ptr<LineClient> client;
    std::size_t item = 0;  ///< the request in flight
    Clock::time_point sent;
    bool busy = false;
  };
  std::vector<Connection> conns(kConnections);
  for (Connection& c : conns) c.client = std::make_unique<LineClient>(sock, 10);
  std::size_t next = 0;
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(seconds);
  const auto send_next = [&](Connection& c) {
    c.busy = false;
    if (next >= limit || Clock::now() >= deadline) return;
    c.item = next++;
    c.sent = Clock::now();
    try {
      c.client->send_frame(reqs[c.item % reqs.size()].frame);
      c.busy = true;
    } catch (const std::exception&) {
      samples[c.item].transport_error = true;  // this connection is gone
    }
  };
  for (Connection& c : conns) send_next(c);
  std::string resp;
  for (bool any = true; any;) {
    any = false;
    for (Connection& c : conns) {
      if (!c.busy) continue;
      any = true;
      bool got = false;
      try {
        got = c.client->try_line(resp);
      } catch (const std::exception&) {
        samples[c.item].transport_error = true;
        c.busy = false;
        continue;
      }
      if (!got) continue;
      const auto now = Clock::now();
      Sample& s = samples[c.item];
      s.latency_us = std::chrono::duration<double, std::micro>(now - c.sent).count();
      s.finished_s = std::chrono::duration<double>(now - t0).count();
      record_response(s, resp);
      if (c.item < reqs.size()) first[c.item] = std::move(resp);
      send_next(c);
    }
  }
  elapsed = seconds_since(t0);
  samples.resize(next);
  return samples;
}

/// fast_rate over equal slices of the timed phase of completions per second.
double sliced_rate(const std::vector<Sample>& samples, double seconds) {
  const int slices = 60;
  const double width = seconds / slices;
  std::vector<double> counts(slices, 0);
  for (const Sample& s : samples) {
    if (s.transport_error) continue;
    const auto k = static_cast<int>(s.finished_s / width);
    if (k < slices) counts[k] += 1;
  }
  for (double& c : counts) c /= width;
  return fast_rate(counts);
}

// ---------------------------------------------------------------------------
// In-process replay (traced run)
// ---------------------------------------------------------------------------

struct Replay {
  std::size_t count = 0;  ///< requests replayed
  double wall_s = 0;
  std::size_t mismatches = 0;
};

/// Replays `frames` through the calls handle_checks makes for a batch of
/// one, against `svc`'s cache, stopping early once `max_s` seconds have
/// passed (0 = no limit), and counts requests whose replayed verdicts
/// contradict the live ones.
Replay replay(const std::vector<const Request*>& frames,
              const std::vector<std::vector<int>>& live_verdicts,
              ssm::service::CheckService& svc, Tracer& tr, double max_s) {
  namespace svcns = ssm::service;
  Replay out;
  const auto t0 = Clock::now();
  for (std::size_t item = 0; item < frames.size(); ++item) {
    if (max_s != 0 && seconds_since(t0) >= max_s) break;
    out.count = item + 1;
    Scope root(tr, "request", item);
    std::string frame = frames[item]->frame;
    frame.pop_back();  // the transport strips the terminator
    std::vector<svcns::FrameItem> items;
    {
      Scope s(tr, "service.protocol.parse", item);
      items = svcns::parse_frame(frame);
    }
    const svcns::CheckRequest& req = items.at(0).request.check;
    std::vector<LitmusTest> tests;
    {
      Scope s(tr, "litmus.parse", item);
      tests = ssm::litmus::parse_suite(req.program);
    }
    std::vector<std::string> names;
    {
      Scope s(tr, "models.validate", item);
      names = req.models.empty() ? ssm::models::model_names() : req.models;
      for (const auto& n : names) (void)ssm::models::make_model(n);
    }
    ssm::litmus::Canonical canon;
    {
      Scope s(tr, "litmus.canonicalize", item);
      canon = ssm::litmus::canonicalize(tests.at(0));
    }
    const ssm::checker::BudgetSpec budget = svc.effective_budget(req.budget);
    std::vector<svcns::CacheKey> keys(names.size());
    std::vector<svcns::VerdictCache::BatchCell> cells(names.size());
    {
      Scope s(tr, "service.cache.key", item);
      for (std::size_t m = 0; m < names.size(); ++m) {
        keys[m].program = canon.key;
        keys[m].model = names[m];
        keys[m].max_nodes = budget.max_nodes;
        keys[m].timeout_ms = budget.timeout_ms;
        keys[m].backend = ssm::checker::to_string(req.backend);
        cells[m].key = &keys[m];
        cells[m].hash = svcns::key_hash(keys[m]);
      }
    }
    {
      Scope s(tr, "service.cache.get", item);
      svc.cache().get_many(cells);
    }
    std::vector<svcns::CachedVerdict> results(names.size());
    std::vector<svcns::VerdictCache::BatchCell> puts;
    for (std::size_t m = 0; m < names.size(); ++m) {
      if (cells[m].result) {
        results[m] = *cells[m].result;
        continue;
      }
      ssm::checker::Verdict v;
      {
        Scope s(tr,
                req.backend == ssm::checker::Backend::Encode ? "solve.encode"
                                                             : "checker.search",
                item);
        v = ssm::checker::Portfolio::check(canon.test.hist, names[m],
                                           req.backend, budget);
      }
      svcns::CachedVerdict& r = results[m];
      if (v.inconclusive) {
        r.status = svcns::CachedVerdict::Status::Inconclusive;
        r.note = v.note;
      } else if (v.allowed) {
        Scope s(tr, "checker.certify", item);
        r.status = svcns::CachedVerdict::Status::Allowed;
        const auto w =
            ssm::checker::witness_from_verdict(canon.test.hist, names[m], v);
        if (ssm::checker::verify_witness(canon.test.hist, w)) {
          throw std::runtime_error("replayed witness failed verification");
        }
        r.witness_json = ssm::checker::to_json(w);
      } else {
        r.status = svcns::CachedVerdict::Status::Forbidden;
      }
      cells[m].value = &r;
      puts.push_back(cells[m]);
    }
    if (!puts.empty()) {
      Scope s(tr, "service.cache.put", item);
      svc.cache().put_many(puts);
    }
    svcns::CheckResponse resp;
    resp.id = std::to_string(item);
    std::vector<int> verdicts;
    for (std::size_t m = 0; m < names.size(); ++m) {
      svcns::ModelResult r;
      r.model = names[m];
      r.verdict = svcns::to_string(results[m].status);
      r.source = cells[m].result ? "cache" : "solved";
      r.witness_json = results[m].witness_json;
      r.note = results[m].note;
      if (!canon.is_identity() && !r.witness_json.empty()) {
        Scope s(tr, "litmus.remap_verify", item);
        const auto remapped = ssm::litmus::remap_witness_from_canonical(
            ssm::checker::witness_from_json(r.witness_json), canon);
        if (ssm::checker::verify_witness(tests[0].hist, remapped)) {
          throw std::runtime_error("remapped witness failed verification");
        }
        r.witness_json = ssm::checker::to_json(remapped);
      }
      verdicts.push_back(verdict_code(results[m].status));
      resp.results.push_back(std::move(r));
    }
    {
      Scope s(tr, "service.protocol.serialize", item);
      (void)svcns::serialize_check_response(resp);
    }
    // INCONCLUSIVE may stand in for a definite verdict (a shared node
    // budget can trip under one schedule and not another); two definite
    // verdicts must agree.
    for (std::size_t m = 0; m < verdicts.size(); ++m) {
      const int live = live_verdicts[item][m];
      if (verdicts[m] != live && verdicts[m] != kInconclusive &&
          live != kInconclusive) {
        ++out.mismatches;
        break;
      }
    }
  }
  out.wall_s = seconds_since(t0);
  return out;
}

double p50_of(const Tracer& tr, std::string_view name) {
  return median(tr.per_item_us(name));
}

}  // namespace

RunResult run_check(const RunOptions& o, bool warm) {
  namespace svcns = ssm::service;
  RunResult res;
  const std::string corpus = "tests/litmus/corpus";
  const std::string sock = o.work + "/s.sock";
  const std::vector<std::string> names = ssm::models::model_names();
  ssm::Rng rng(o.seed);
  std::size_t counter = 0;
  std::set<std::string> seen = corpus_keys(corpus);

  // --- inputs -------------------------------------------------------------
  // Set-up is timed over kSetupRepeats server starts.  Cold starts all
  // preload the corpus.  Each warm start preloads a warm set of its own,
  // drawn like the live one, because what a warm start costs depends on
  // the programs drawn (solve time varies by 0.37 IQR/median from seed to
  // seed): setup_s is then taken over warm sets, not one draw.  The
  // last start preloads the live warm set and stays up.
  std::vector<LitmusTest> warm_set;
  std::vector<std::string> preloads(kSetupRepeats, corpus);
  std::size_t capacity = 0;  // server default
  if (warm) {
    const std::size_t size = o.smoke ? 8 : kWarmSet;
    const auto write_set = [&](const std::vector<LitmusTest>& set,
                               const std::string& dir) {
      fs::create_directories(dir);
      for (std::size_t i = 0; i < set.size(); ++i) {
        std::ofstream(dir + "/w" + std::to_string(i) + ".litmus")
            << ssm::litmus::emit(set[i]);
      }
    };
    warm_set = draw_programs(rng, seen, size, counter);
    preloads.back() = o.work + "/warm";
    write_set(warm_set, preloads.back());
    for (int k = 0; k + 1 < kSetupRepeats; ++k) {
      preloads[k] = o.work + "/setup" + std::to_string(k);
      write_set(draw_programs(rng, seen, size, counter), preloads[k]);
    }
    // Nothing may be evicted: every shard (capacity / 16) can hold every
    // cell, and each definite cell is stored twice (primary + alias key).
    capacity = svcns::VerdictCache::shard_count() * 2 * warm_set.size() *
               names.size();
  }
  const std::string& preload = preloads.back();

  // --- set-up: spawn through preload until ping answers --------------------
  ServerProcess server = start_server(o, sock, preloads, capacity);
  const double setup_s = fast_time(server.setup_s);
  res.stamp["server_flags"] = server.flags;
  res.stamp["pool_width"] = std::to_string(o.jobs);
  LineClient control(sock, 10);

  // --- request stream -----------------------------------------------------
  std::vector<Request> reqs;
  std::vector<LitmusTest> sent;  // parsed as sent, per distinct request
  std::vector<std::vector<int>> expected;  // warm: the original's verdicts
  const auto add_request = [&](const LitmusTest& t, bool encode) {
    const std::string program = ssm::litmus::emit(t);
    reqs.push_back({encode, make_frame(reqs.size(), program, encode)});
    sent.push_back(ssm::litmus::parse_test(program));
  };
  // Requests the timed phase may take: a multiple of the rate seen while
  // warming up on one connection, so the stream never runs dry (two
  // connections run up to twice as fast, and 64 heavy-tailed cold requests
  // can read low by another factor of two).  Cold programs must each be
  // generated beforehand; warm clones are reused.
  const auto size_for = [&](double warmup_rate) {
    return static_cast<std::size_t>(warmup_rate * o.seconds * (warm ? 10 : 6)) +
           256;
  };
  std::size_t limit = 0;
  if (warm) {
    // The originals' verdicts (cache hits, untimed; also the warm-up), then
    // the clone pool.
    std::vector<std::vector<int>> original(warm_set.size());
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < warm_set.size(); ++i) {
      const std::string program = ssm::litmus::emit(warm_set[i]);
      const std::string resp = control.call(make_frame(i, program, false));
      const Checked c =
          check_response(resp, ssm::litmus::parse_test(program), names);
      if (!c.error.empty()) {
        res.fail(0, "warm-set program " + std::to_string(i) + ": " + c.error +
                        "\n" + program);
      }
      original[i] = c.verdicts;
    }
    limit = size_for(static_cast<double>(warm_set.size()) / seconds_since(t0));
    const std::size_t per = o.smoke ? 2 : kClonesPerWarm;
    std::vector<std::pair<std::size_t, LitmusTest>> clones;
    for (std::size_t i = 0; i < warm_set.size(); ++i) {
      const std::string key = ssm::litmus::canonical_key(warm_set[i]);
      for (std::size_t k = 0; k < per; ++k) {
        LitmusTest c = make_clone(warm_set[i], rng, "c" + std::to_string(counter++));
        // Canonicalization is best-effort; a clone it does not map back to
        // the original's key would not be a warm request.
        if (ssm::litmus::canonical_key(c) == key) clones.emplace_back(i, std::move(c));
      }
    }
    rng.shuffle(clones);
    for (const auto& [i, c] : clones) {
      add_request(c, false);
      expected.push_back(original[i]);
    }
  } else {
    // Warm-up on fresh programs (lazy start-up finishes, rate estimate),
    // then a pool sized for the timed phase.
    const auto t0 = Clock::now();
    for (const auto& t : draw_programs(rng, seen, kWarmupRequests, counter)) {
      (void)control.call(make_frame(0, ssm::litmus::emit(t), rng.chance(1, 4)));
    }
    const std::size_t n = size_for(kWarmupRequests / seconds_since(t0));
    for (const auto& t : draw_programs(rng, seen, n, counter)) {
      add_request(t, rng.chance(1, 4));
    }
    limit = reqs.size();
  }

  // --- timed phase ----------------------------------------------------------
  const Counters before = counters_from_snapshot(stats_snapshot(control));
  std::vector<std::string> first;
  double elapsed = 0;
  std::vector<Sample> samples =
      closed_loop(sock, reqs, limit, o.seconds, first, elapsed);
  const Counters delta = counter_delta(
      before, counters_from_snapshot(stats_snapshot(control)));
  control.call("{\"op\": \"shutdown\"}\n");
  double server_rss = 0;
  if (server.child->wait(&server_rss) != 0) {
    res.fail(0, "server exited non-zero");
  }
  if (samples.size() >= limit) {
    res.fail(0, "request pool ran out before the timed phase ended");
  }

  // --- output checks --------------------------------------------------------
  res.attempted = samples.size();
  const std::size_t distinct = std::min(samples.size(), reqs.size());
  std::vector<Checked> checked(distinct);
  ssm::common::ThreadPool::global().parallel_for(distinct, [&](std::size_t i) {
    if (!samples[i].transport_error) {
      checked[i] = check_response(first[i], sent[i], names);
    }
  });
  std::size_t cells = 0;
  std::size_t definite = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    const std::size_t d = i % reqs.size();
    if (s.transport_error) {
      res.fail(1, "disconnect on request " + std::to_string(i));
      continue;
    }
    const Checked& c = checked[d];
    cells += names.size();
    if (!c.error.empty()) {
      res.fail(1, "request " + std::to_string(i) + ": " + c.error);
      continue;
    }
    for (const int v : c.verdicts) definite += v != kInconclusive;
    if (s.results_hash != samples[d].results_hash) {
      res.fail(1, "request " + std::to_string(i) + ": results differ from " +
                      "an identical earlier request");
    } else if (warm && c.verdicts != expected[d]) {
      res.fail(1, "clone " + std::to_string(i) + ": verdicts differ from " +
                      "its warm-set original");
    } else if (warm && s.solved != 0) {
      res.fail(1, "clone " + std::to_string(i) + ": solved on the server");
    }
  }
  if (!warm) {
    // Re-decide a seeded sample with the other backend; definite verdicts
    // must agree.
    std::vector<std::size_t> pick(distinct);
    std::iota(pick.begin(), pick.end(), std::size_t{0});
    rng.shuffle(pick);
    pick.resize(std::min(pick.size(), o.smoke ? std::size_t{4} : kBackendSample));
    for (const std::size_t i : pick) {
      if (samples[i].transport_error || !checked[i].error.empty()) continue;
      const auto other = reqs[i].encode ? ssm::checker::Backend::Search
                                        : ssm::checker::Backend::Encode;
      for (std::size_t m = 0; m < names.size(); ++m) {
        const auto v = ssm::checker::Portfolio::check(
            sent[i].hist, names[m], other, {kMaxNodes, 0});
        const int live = checked[i].verdicts[m];
        if (v.inconclusive || live == kInconclusive) continue;
        if ((live == kAllowed) != v.allowed) {
          res.fail(1, "request " + std::to_string(i) + " " + names[m] +
                          ": backends disagree");
          break;
        }
      }
    }
  }

  // --- end-to-end metrics -------------------------------------------------
  std::vector<double> lat;
  std::vector<double> handle;
  std::vector<double> server_side;
  for (const Sample& s : samples) {
    if (s.transport_error) continue;
    lat.push_back(s.latency_us);
    handle.push_back(s.handle_us);
    server_side.push_back(s.latency_us - s.handle_us);
  }
  if (highest_supported_percentile(lat.size()) < 99 && !o.smoke) {
    res.fail(0, "fewer than 10 samples beyond p99");
  }
  res.e2e("items_per_s", sliced_rate(samples, o.seconds), "1/s");
  res.e2e("latency_p50_us", chunked_quantile(lat, 0.50), "us");
  res.e2e("latency_p99_us", chunked_quantile(lat, 0.99), "us");
  res.e2e("decided_share", ratio(static_cast<double>(definite),
                                 static_cast<double>(cells)), "ratio");
  res.e2e("setup_s", setup_s, "s");
  res.e2e("peak_rss_mb", server_rss, "MiB");
  res.stamp["requests"] = std::to_string(samples.size());
  res.stamp["distinct_programs"] = std::to_string(distinct);
  res.stamp["timed_s"] = std::to_string(elapsed);
  {
    std::size_t ops = 0;
    for (std::size_t i = 0; i < distinct; ++i) ops += sent[i].hist.size();
    res.stamp["mean_ops_per_program"] =
        std::to_string(ratio(static_cast<double>(ops), static_cast<double>(distinct)));
    std::size_t enc = 0;
    for (std::size_t i = 0; i < distinct; ++i) enc += reqs[i].encode;
    res.stamp["encode_share"] =
        std::to_string(ratio(static_cast<double>(enc), static_cast<double>(distinct)));
  }
  const double n = static_cast<double>(samples.size());
  const double hits = static_cast<double>(get(delta, "service.cache_hits"));
  const double misses = static_cast<double>(get(delta, "service.cache_misses"));
  res.stamp["hit_share"] = std::to_string(ratio(hits, hits + misses));
  res.stamp["exhausted_share"] = std::to_string(
      ratio(static_cast<double>(get(delta, "checker.exhausted")),
            static_cast<double>(get(delta, "checker.searches"))));
  if (!o.trace) return res;

  // --- per-layer metrics ----------------------------------------------------
  const auto d = [&](std::string_view k) {
    return static_cast<double>(get(delta, k));
  };
  res.layer("service.server_us", median(server_side), "us");
  res.layer("service.handle_us", median(handle), "us");
  res.layer("service.cache.hit_share", ratio(hits, hits + misses), "ratio");
  res.layer("service.cache.lockfree_reads_per_item",
            ratio(d("service.cache_lockfree_reads"), n), "count");
  res.layer("service.cache.shard_locks_per_item",
            ratio(d("service.shard_lock_acquisitions"), n), "count");
  res.layer("service.dedup_share",
            ratio(d("service.inflight_dedup"), n * names.size()), "ratio");
  res.layer("service.batch_size_mean",
            ratio(d("service.batch_size.sum"), d("service.batch_size.count")),
            "count");
  res.layer("checker.nodes_per_item", ratio(d("checker.nodes"), n), "count");
  res.layer("checker.memo_hit_share",
            ratio(d("checker.memo_hits"),
                  d("checker.memo_hits") + d("checker.memo_misses")),
            "ratio");
  res.layer("checker.exhausted_share",
            ratio(d("checker.exhausted"), d("checker.searches")), "ratio");
  res.layer("solve.encode_checks_per_item",
            ratio(d("checker.encode_checks"), n), "count");
  res.layer("order.derive_reuse_per_item",
            ratio(d("checker.order_derive_reuse"), n), "count");
  res.layer("scheduler.steals_per_item", ratio(d("scheduler.steals"), n),
            "count");
  res.layer("scheduler.steal_failure_share",
            ratio(d("scheduler.steal_failures"),
                  d("scheduler.steals") + d("scheduler.steal_failures")),
            "ratio");

  // Replay the first requests of the live stream (as many as the replay
  // budget allows untraced), untraced and then traced, each against a
  // fresh service preloaded like the live server.
  std::vector<const Request*> frames;
  std::vector<std::vector<int>> live;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const std::size_t dd = i % reqs.size();
    if (samples[i].transport_error || !checked[dd].error.empty()) continue;
    frames.push_back(&reqs[dd]);
    live.push_back(checked[dd].verdicts);
  }
  const auto fresh_service = [&] {
    svcns::CheckService::Options opts;
    opts.default_budget.max_nodes = kMaxNodes;
    if (capacity != 0) opts.cache.capacity = capacity;
    auto svc = std::make_unique<svcns::CheckService>(opts);
    (void)svc->preload(preload);
    return svc;
  };
  Tracer off(false);
  const Replay plain =
      replay(frames, live, *fresh_service(), off, replay_budget_s(o));
  frames.resize(plain.count);
  auto svc = fresh_service();
  auto& reg = ssm::common::metrics::Registry::global();
  const Counters rb = counters_from_snapshot(reg.to_json());
  Tracer tr(true);
  const Replay traced = replay(frames, live, *svc, tr, 0);
  const Counters rd = counter_delta(rb, counters_from_snapshot(reg.to_json()));
  if (plain.mismatches + traced.mismatches != 0) {
    res.fail(std::max(plain.mismatches, traced.mismatches),
             "replayed verdicts contradict the live run");
  }
  const auto search = tr.per_item_us("checker.search");
  double search_s = 0;
  for (const double us : search) search_s += us / 1e6;
  res.layer("service.protocol.parse_us", p50_of(tr, "service.protocol.parse"), "us");
  res.layer("service.protocol.serialize_us",
            p50_of(tr, "service.protocol.serialize"), "us");
  res.layer("service.cache.get_us", p50_of(tr, "service.cache.get"), "us");
  res.layer("service.cache.put_us", p50_of(tr, "service.cache.put"), "us");
  res.layer("litmus.parse_us", p50_of(tr, "litmus.parse"), "us");
  res.layer("litmus.canonicalize_us", p50_of(tr, "litmus.canonicalize"), "us");
  res.layer("litmus.remap_verify_us", p50_of(tr, "litmus.remap_verify"), "us");
  res.layer("models.validate_us", p50_of(tr, "models.validate"), "us");
  res.layer("checker.search_us_p50", quantile(search, 0.50), "us");
  res.layer("checker.search_us_p99", quantile(search, 0.99), "us");
  res.layer("checker.nodes_per_s",
            ratio(static_cast<double>(get(rd, "checker.nodes")), search_s), "1/s");
  res.layer("checker.certify_us", p50_of(tr, "checker.certify"), "us");
  res.layer("solve.encode_us", p50_of(tr, "solve.encode"), "us");
  res.layer("bench.attributed_share", tr.attributed_share(), "ratio");
  res.layer("bench.tracing_overhead", ratio(traced.wall_s, plain.wall_s) - 1,
            "ratio");
  res.stamp["replayed_requests"] = std::to_string(plain.count);
  tr.write(o.spans);
  return res;
}

}  // namespace perfbench

// fuzz_campaign: the differential-fuzzing loop `ssm fuzz --seed S` runs —
// case i is fuzz::random_test over Rng(fuzz::case_seed(S, i)) with the
// default generator, checked by Oracle::run_case — fanned out over the
// checker pool in fixed batches until the run length is spent.  Each case
// is timed on its own, so the loop is written out here rather than calling
// fuzz::run_fuzz; that it computes exactly what run_fuzz computes is one of
// the output checks (the report JSON of the first cases must be
// byte-identical).
//
// The traced run replays cases serially through the calls run_case makes
// (derived orders, the 18 search checks, certificate checks, the encode
// checks, operational exploration), with a span around each.
#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "checker/witness.hpp"
#include "checker/witness_verifier.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "fuzz/fuzzer.hpp"
#include "lattice/inclusion.hpp"
#include "litmus/emit.hpp"
#include "models/operational.hpp"
#include "models/registry.hpp"
#include "order/derived.hpp"
#include "proc.hpp"
#include "recorded.hpp"
#include "service/cache.hpp"
#include "solve/backend.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 21;
constexpr std::size_t kBatch = 256;        ///< cases per parallel batch
constexpr std::size_t kReportCases = 256;  ///< cases cross-checked vs run_fuzz
/// Schedule cap per operational exploration.  See oracle_options().
constexpr std::uint64_t kMaxSchedules = 500;

/// The default oracle, except that each operational exploration is capped
/// at kMaxSchedules schedules instead of 500'000.  At the default cap the
/// top 5% of cases take 99% of campaign time (single cases run up to 18 s),
/// so a 10-second run would measure a handful of cases and its throughput
/// would depend on which seed drew them.
ssm::fuzz::OracleOptions oracle_options() {
  ssm::fuzz::OracleOptions o;
  o.max_schedules = kMaxSchedules;
  return o;
}

/// The sound machine -> model pairs the oracle explores (fuzz/oracle.cpp).
constexpr std::pair<const char*, const char*> kSoundPairs[] = {
    {"sc", "SC"},         {"tso", "TSOfwd"}, {"pram", "PRAM"},
    {"causal", "Causal"}, {"coherent", "PCg"},
};

struct CaseOut {
  double us = 0;
  std::size_t ops = 0;
  std::size_t findings = 0;
  std::size_t inconclusive_cells = 0;  ///< search cells only
  std::vector<std::string> inconclusive;  ///< run_case's notes, in order
  std::string dsl;                        ///< kept for the report check
};

CaseOut run_one(const ssm::fuzz::Oracle& oracle,
                const ssm::fuzz::GeneratorSpec& gen, std::uint64_t seed,
                std::size_t i, bool keep_dsl) {
  CaseOut out;
  const auto t0 = Clock::now();
  ssm::Rng rng(ssm::fuzz::case_seed(seed, i));
  const auto t = ssm::fuzz::random_test(gen, rng, "fuzz-" + std::to_string(i));
  auto r = oracle.run_case(t);
  out.us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  out.ops = t.hist.size();
  out.findings = r.findings.size();
  for (const auto& note : r.inconclusive) {
    out.inconclusive_cells += note.find(" (encode): ") == std::string::npos;
  }
  out.inconclusive = std::move(r.inconclusive);
  if (keep_dsl) out.dsl = ssm::litmus::emit(t);
  return out;
}

/// Serial replay of case i through the calls Oracle::run_case makes.
/// Returns its inconclusive notes, in run_case's order.
std::vector<std::string> replay_case(
    const std::vector<ssm::models::ModelPtr>& models,
    const std::vector<std::pair<ssm::models::ModelPtr, std::size_t>>& machines,
    const ssm::fuzz::OracleOptions& opts, const ssm::fuzz::GeneratorSpec& gen,
    std::uint64_t seed, std::size_t i, Tracer& tr) {
  Scope root(tr, "fuzz.case", i);
  ssm::litmus::LitmusTest t;
  {
    Scope s(tr, "fuzz.generate", i);
    ssm::Rng rng(ssm::fuzz::case_seed(seed, i));
    t = ssm::fuzz::random_test(gen, rng, "fuzz-" + std::to_string(i));
  }
  Scope oracle(tr, "fuzz.oracle", i);
  const auto& h = t.hist;
  std::unique_ptr<ssm::order::DerivedOrders> orders;
  {
    Scope s(tr, "order.derive", i);
    orders = std::make_unique<ssm::order::DerivedOrders>(h);
  }
  const ssm::order::OrdersScope orders_scope(*orders);
  std::vector<std::string> notes;
  std::vector<ssm::checker::Verdict> verdicts;
  {
    Scope s(tr, "fuzz.verdicts", i);
    for (const auto& m : models) {
      {
        Scope c(tr, "checker.search", i);
        verdicts.push_back(m->check(h));
      }
      if (verdicts.back().inconclusive) {
        notes.push_back(std::string(m->name()) + ": " + verdicts.back().note);
      }
    }
    Scope c(tr, "checker.certify", i);
    for (std::size_t k = 0; k < models.size(); ++k) {
      const auto& v = verdicts[k];
      if (!v.allowed || v.inconclusive) continue;
      const auto w = ssm::checker::witness_from_verdict(
          h, std::string(models[k]->name()), v);
      if (ssm::checker::verify_witness(h, w)) {
        throw std::runtime_error("replayed witness failed verification");
      }
    }
  }
  {
    Scope s(tr, "fuzz.encode", i);
    for (std::size_t k = 0; k < models.size(); ++k) {
      const std::string name(models[k]->name());
      if (!ssm::solve::encode_supports(name) || verdicts[k].inconclusive) {
        continue;
      }
      const auto ev = ssm::solve::encode_check(h, name);
      if (ev.inconclusive) notes.push_back(name + " (encode): " + ev.note);
    }
  }
  // A machine explores only histories within the op cap that its sound
  // model definitely rejects.
  std::vector<const ssm::models::Model*> explore;
  for (const auto& [machine, mi] : machines) {
    const auto& decl = verdicts[mi];
    if (h.size() <= opts.max_operational_ops && !decl.inconclusive &&
        !decl.allowed) {
      explore.push_back(machine.get());
    }
  }
  if (!explore.empty()) {
    Scope s(tr, "simulate.explore", i);
    for (const auto* machine : explore) (void)machine->check(h);
  }
  return notes;
}

}  // namespace

void probe_fuzz_setup() {
  const ssm::fuzz::Oracle oracle(ssm::models::all_models(), oracle_options());
}

RunResult run_fuzz(const RunOptions& o) {
  RunResult res;
  const ssm::fuzz::GeneratorSpec gen;
  const ssm::fuzz::OracleOptions opts = oracle_options();
  res.stamp["pool_width"] = std::to_string(o.jobs);
  res.stamp["oracle"] = "defaults, max_schedules=" + std::to_string(kMaxSchedules);
  res.stamp["batch"] = std::to_string(kBatch);

  const double setup_s = probe_setup_seconds(o.workload, "", kSetupRepeats);
  const ssm::fuzz::Oracle oracle(ssm::models::all_models(), opts);

  auto& reg = ssm::common::metrics::Registry::global();
  reset_peak_rss();
  const Counters before = counters_from_snapshot(reg.to_json());
  std::vector<CaseOut> cases;
  std::vector<double> rates;
  auto& pool = ssm::common::ThreadPool::global();
  const auto t0 = Clock::now();
  do {
    const std::size_t base = cases.size();
    cases.resize(base + kBatch);
    const auto b0 = Clock::now();
    pool.parallel_for(kBatch, [&](std::size_t k) {
      cases[base + k] =
          run_one(oracle, gen, o.seed, base + k, base + k < kReportCases);
    });
    rates.push_back(static_cast<double>(kBatch) / seconds_since(b0));
  } while (seconds_since(t0) < o.seconds);
  const Counters delta =
      counter_delta(before, counters_from_snapshot(reg.to_json()));
  const double rss = self_peak_rss_mb();

  // Output checks: zero findings, and run_fuzz's report for the first
  // cases equals the one this loop's results give (and the recorded digest
  // for the default and held-out seeds).
  const std::size_t n = cases.size();
  res.attempted = n;
  std::size_t inconclusive_cells = 0;
  std::size_t applicable = 0;
  std::size_t with_notes = 0;
  std::vector<double> lat;
  for (std::size_t i = 0; i < n; ++i) {
    if (cases[i].findings != 0) {
      res.fail(1, "case " + std::to_string(i) + ": " +
                      std::to_string(cases[i].findings) + " findings");
    }
    inconclusive_cells += cases[i].inconclusive_cells;
    applicable += cases[i].ops <= opts.max_operational_ops;
    with_notes += !cases[i].inconclusive.empty();
    lat.push_back(cases[i].us);
  }
  const std::size_t report_cases =
      std::min(n, o.smoke ? std::size_t{16} : kReportCases);
  ssm::fuzz::FuzzReport mine;
  mine.seed = o.seed;
  mine.cases = report_cases;
  for (std::size_t i = 0; i < report_cases; ++i) {
    for (const auto& note : cases[i].inconclusive) {
      mine.inconclusive.push_back(
          {i, ssm::fuzz::case_seed(o.seed, i), note, cases[i].dsl});
    }
  }
  ssm::fuzz::FuzzOptions fopts;
  fopts.seed = o.seed;
  fopts.iters = report_cases;
  fopts.oracle = opts;
  const ssm::fuzz::FuzzReport theirs = ssm::fuzz::run_fuzz(fopts);
  const std::string digest =
      ssm::service::hex16(ssm::service::fnv1a64(theirs.to_json()));
  const std::string recorded =
      o.smoke ? "" : recorded_digest("fuzz_campaign", o.seed);
  if (!theirs.clean()) res.fail(0, "run_fuzz reports findings");
  if (theirs.to_json() != mine.to_json()) {
    res.fail(report_cases, "run_fuzz's report differs from this loop's");
  } else if (!recorded.empty() && digest != recorded) {
    res.fail(report_cases, "report digest " + digest + " != recorded " + recorded);
  }
  if (highest_supported_percentile(lat.size()) < 99 && !o.smoke) {
    res.fail(0, "fewer than 10 samples beyond p99");
  }
  const double cells = static_cast<double>(n * oracle.models().size());
  res.stamp["cases"] = std::to_string(n);
  res.stamp["report_digest"] = digest;
  res.stamp["operational_applicable_share"] =
      std::to_string(ratio(static_cast<double>(applicable), static_cast<double>(n)));
  res.e2e("items_per_s", fast_rate(rates), "1/s");
  res.e2e("latency_p50_us", chunked_quantile(lat, 0.50), "us");
  res.e2e("latency_p99_us", chunked_quantile(lat, 0.99), "us");
  res.e2e("decided_share", ratio(cells - static_cast<double>(inconclusive_cells), cells),
          "ratio");
  res.e2e("setup_s", setup_s, "s");
  res.e2e("peak_rss_mb", rss, "MiB");
  if (!o.trace) return res;

  const auto d = [&](std::string_view k) {
    return static_cast<double>(get(delta, k));
  };
  const double items = static_cast<double>(n);
  res.layer("fuzz.inconclusive_share", ratio(static_cast<double>(with_notes), items),
            "ratio");
  res.layer("fuzz.shrink_steps", static_cast<double>(theirs.shrink_steps), "count");
  res.layer("simulate.applicable_share",
            ratio(static_cast<double>(applicable), items), "ratio");
  res.layer("scheduler.steals_per_item", ratio(d("scheduler.steals"), items), "count");
  res.layer("scheduler.steal_failure_share",
            ratio(d("scheduler.steal_failures"),
                  d("scheduler.steals") + d("scheduler.steal_failures")),
            "ratio");
  res.layer("checker.nodes_per_item", ratio(d("checker.nodes"), items), "count");
  res.layer("checker.memo_hit_share",
            ratio(d("checker.memo_hits"),
                  d("checker.memo_hits") + d("checker.memo_misses")),
            "ratio");
  res.layer("order.derive_reuse_per_item",
            ratio(d("checker.order_derive_reuse"), items), "count");

  // Serial replay of the first cases: untraced for as long as the replay
  // budget allows, then the same cases traced.
  const auto models = ssm::models::all_models();
  std::vector<std::pair<ssm::models::ModelPtr, std::size_t>> machines;
  for (const auto& [machine, model] : kSoundPairs) {
    for (std::size_t k = 0; k < models.size(); ++k) {
      if (models[k]->name() == model) {
        machines.emplace_back(
            ssm::models::make_operational(machine, opts.max_schedules), k);
      }
    }
  }
  Tracer off(false);
  std::size_t count = 0;
  const auto p0 = Clock::now();
  while (count < n && seconds_since(p0) < replay_budget_s(o)) {
    (void)replay_case(models, machines, opts, gen, o.seed, count++, off);
  }
  const double plain_s = seconds_since(p0);
  Tracer tr(true);
  const auto q0 = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    if (replay_case(models, machines, opts, gen, o.seed, i, tr) !=
        cases[i].inconclusive) {
      res.fail(1, "replayed case " + std::to_string(i) + " differs from the run");
    }
  }
  const double traced_s = seconds_since(q0);
  const auto explore = tr.per_item_us("simulate.explore");
  const auto oracle_us = tr.per_item_us("fuzz.oracle");
  res.layer("fuzz.generate_us", median(tr.per_item_us("fuzz.generate")), "us");
  res.layer("fuzz.oracle_us_p50", quantile(oracle_us, 0.50), "us");
  res.layer("fuzz.oracle_us_p99", quantile(oracle_us, 0.99), "us");
  res.layer("fuzz.verdicts_us", median(tr.per_item_us("fuzz.verdicts")), "us");
  res.layer("fuzz.encode_us", median(tr.per_item_us("fuzz.encode")), "us");
  res.layer("simulate.explore_us_p50", quantile(explore, 0.50), "us");
  res.layer("simulate.explore_us_p99", quantile(explore, 0.99), "us");
  res.layer("bench.attributed_share", tr.attributed_share(), "ratio");
  res.layer("bench.tracing_overhead", ratio(traced_s, plain_s) - 1, "ratio");
  res.stamp["replayed_cases"] = std::to_string(count);
  tr.write(o.spans);
  return res;
}

}  // namespace perfbench

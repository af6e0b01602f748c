// Deterministic stress-harness driver. Generates a seeded workload
// trace, runs it from one driving thread against the R-tree (optionally
// through the query service) with every query diffed against the
// brute-force oracle and TreeValidator run on a cadence, and — when a
// run fails — shrinks the trace to a minimal text reproducer.
//
// Usage:
//   stress_harness [seed] [ops]             seeded run (default 1 1000)
//   stress_harness --service [seed] [ops]   route queries through RunSync
//   stress_harness --faults [seed] [ops]    1% transient faults + bit flips
//   stress_harness --crash [seed] [ops]     WAL'd writes on a volatile
//                                           write cache with seeded power
//                                           losses: every crash recovers
//                                           and diffs the full state
//                                           against the oracle (combine
//                                           with --service to route the
//                                           mutations through the service
//                                           write path)
//   stress_harness --replay file.trace      re-run a saved reproducer
//   stress_harness --demo-shrink            plant a corruption, show ddmin
//   stress_harness --lint-env [seed]        short smoke over the
//                                           lock-annotated read and fault
//                                           paths (shard mutexes, fault
//                                           injector, quarantine), from
//                                           one actor, under a TSan build

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "check/stress.h"

namespace {

using pictdb::check::FailsUnder;
using pictdb::check::GenerateTrace;
using pictdb::check::Op;
using pictdb::check::OpKind;
using pictdb::check::ParseTrace;
using pictdb::check::RunTrace;
using pictdb::check::ShrinkTrace;
using pictdb::check::StressConfig;
using pictdb::check::StressOutcome;
using pictdb::check::TraceToText;

StressConfig BaseConfig(uint64_t seed, size_t ops) {
  StressConfig config;
  config.seed = seed;
  config.ops = ops;
  return config;
}

void EnableCrashes(StressConfig* config) {
  config->durable = true;
  config->w_update = 0.05;
  config->w_crash = 0.02;
  config->w_checkpoint = 0.01;
  // Re-PACK and fault episodes are the offline-era ops; a crash trace
  // spends its budget on logged mutations and recoveries instead.
  config->w_repack = 0.0;
  config->w_repack_region = 0.0;
  config->w_fault_flip = 0.0;
  config->checkpoint_every = 256;
}

void EnableFaults(StressConfig* config) {
  config->fault_plan.seed = config->seed * 2 + 1;
  config->fault_plan.transient_read_error_rate = 0.01;
  config->fault_plan.transient_write_error_rate = 0.005;
  config->fault_plan.read_bit_flip_rate = 0.01;
  config->pool_frames = 64;  // small pool so reads really hit the disk
}

int RunAndReport(const std::vector<Op>& trace, const StressConfig& config) {
  const StressOutcome outcome = RunTrace(trace, config);
  std::printf("%s\n", outcome.Summary().c_str());
  if (!outcome.failed) return 0;

  std::printf("shrinking %zu-op failing trace...\n", trace.size());
  const std::vector<Op> shrunk = ShrinkTrace(trace, FailsUnder(config));
  std::printf("minimal reproducer (%zu op(s)):\n%s", shrunk.size(),
              TraceToText(shrunk).c_str());
  const std::string path = "stress_repro.trace";
  std::ofstream out(path);
  out << "# seed " << config.seed << " ops " << config.ops << "\n"
      << TraceToText(shrunk);
  std::printf("written to %s (replay with --replay %s)\n", path.c_str(),
              path.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool service = false, faults = false, crash = false, demo = false,
       lint_env = false;
  std::string replay_path;
  uint64_t seed = 1;
  size_t ops = 1000;

  int pos = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--service") {
      service = true;
    } else if (arg == "--faults") {
      faults = true;
    } else if (arg == "--crash") {
      crash = true;
    } else if (arg == "--demo-shrink") {
      demo = true;
    } else if (arg == "--lint-env") {
      lint_env = true;
    } else if (arg == "--replay" && i + 1 < argc) {
      replay_path = argv[++i];
    } else if (pos == 0) {
      seed = std::strtoull(arg.c_str(), nullptr, 10);
      ++pos;
    } else {
      ops = std::strtoull(arg.c_str(), nullptr, 10);
    }
  }

  if (lint_env) {
    // Belt and suspenders with the static analysis: a short
    // service-routed, fault-injected run takes the mutexes the
    // annotation pass covers on the read and fault paths (buffer-pool
    // shard + jitter PRNG, fault injector plan, quarantine), so a TSan
    // build of this mode re-checks them at run time. One actor drives
    // the whole trace, so at most one query is in flight and no lock
    // is contended.
    // Keep it small enough for a CI smoke.
    StressConfig config = BaseConfig(seed, 400);
    config.use_service = true;
    config.pool_frames = 32;  // force eviction + miss traffic per shard
    EnableFaults(&config);
    const StressOutcome outcome = RunTrace(GenerateTrace(config), config);
    std::printf("lint-env smoke: %s\n", outcome.Summary().c_str());
    return outcome.failed ? 1 : 0;
  }

  StressConfig config = BaseConfig(seed, ops);
  config.use_service = service;
  if (faults) EnableFaults(&config);
  if (crash) EnableCrashes(&config);

  if (!replay_path.empty()) {
    std::ifstream in(replay_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", replay_path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    auto trace = ParseTrace(text.str());
    if (!trace.ok()) {
      std::fprintf(stderr, "%s\n", trace.status().ToString().c_str());
      return 2;
    }
    std::printf("replaying %zu op(s) from %s\n", trace->size(),
                replay_path.c_str());
    const StressOutcome outcome = RunTrace(*trace, config);
    std::printf("%s\n", outcome.Summary().c_str());
    return outcome.failed ? 1 : 0;
  }

  std::vector<Op> trace = GenerateTrace(config);
  if (demo) {
    // Plant the seeded corruption the harness exists to catch, then show
    // the shrinker reduce the failing trace to a minimal reproducer.
    // Planted at the tail so no later insert can innocently repair the
    // parent MBR before the closing validation sees it.
    Op corrupt;
    corrupt.kind = OpKind::kCorruptMbr;
    corrupt.a = 17;
    trace.push_back(corrupt);
    std::printf("planted corrupt-mbr as final op %zu\n", trace.size() - 1);
  }
  std::printf("seed=%llu ops=%zu%s%s%s\n",
              static_cast<unsigned long long>(seed), trace.size(),
              service ? " [service]" : "", faults ? " [faults]" : "",
              crash ? " [crash]" : "");
  const int rc = RunAndReport(trace, config);
  // The demo is *supposed* to fail and shrink; its exit code is success.
  return demo ? 0 : rc;
}

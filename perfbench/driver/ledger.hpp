// The traced run: the paper pipeline (or the census campaign) composed
// from each layer's public functions, with every call timed from here.
//
// Nothing inside src/ is instrumented for this. Wall and CPU time come
// from stopwatches around the layer calls; the split of a campaign into
// its two scans and the counters inside the scan, store, wire and overlap
// layers come from the obs::RunObserver spans and metrics the library
// already records; churn time comes from a WorldModel wrapper that times
// the model calls the campaign makes. The traced composition must
// reproduce run_full_pipeline's output exactly — its summary is checked
// against the same committed expectation as the untraced run — so the
// ledger cannot drift from the code path it describes.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "summary.hpp"
#include "workloads.hpp"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every per-layer metric a traced run reports, in output order.
const std::vector<MetricSpec>& per_layer_metrics();

// Name -> value, in first-insertion order.
class Ledger {
 public:
  void set(const std::string& name, double value);
  void add(const std::string& name, double value);
  // The value recorded under `name`, 0 when there is none.
  double get(const std::string& name) const;
  const std::vector<std::pair<std::string, double>>& entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, double>> entries_;
};

struct TracedRun {
  Ledger ledger;
  double wall_s = 0.0;  // first call after set-up to the finished result
  Summary summary;
};

// One traced paper_full / paper_spill run.
TracedRun trace_paper(const Settings& settings);

// One traced census_sweep run.
TracedRun trace_census(const Settings& settings);

}  // namespace perfbench

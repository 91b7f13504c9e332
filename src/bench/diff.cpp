#include "bench/diff.h"

#include <cmath>
#include <map>
#include <set>

namespace fabricsim::bench {

namespace {

// Double→text→double roundtrip slack for "exact" numeric comparison.
constexpr double kExactRelEps = 1e-9;

bool NearlyEqual(double a, double b) {
  if (a == b) return true;
  const double scale = std::max(std::abs(a), std::abs(b));
  return std::abs(a - b) <= kExactRelEps * scale;
}

void Fail(DiffReport* report, const std::string& where,
          const std::string& what) {
  report->failures.push_back(where + ": " + what);
}

std::string Brief(const Json& v) {
  switch (v.GetKind()) {
    case Json::Kind::kNull:
      return "null";
    case Json::Kind::kBool:
      return v.AsBool() ? "true" : "false";
    case Json::Kind::kNumber:
      return FormatNumber(v.AsNumber());
    case Json::Kind::kString:
      return "\"" + v.AsString() + "\"";
    case Json::Kind::kObject:
      return "<object>";
    case Json::Kind::kArray:
      return "<array>";
  }
  return "<?>";
}

// Points join on their label, so a label must name one point per document:
// with a duplicate, all but one of its points would go uncompared.
void CheckUniqueLabels(const Json& points, const char* which,
                       DiffReport* report) {
  std::set<std::string> seen;
  for (const Json& p : points.AsArray()) {
    const Json* label = p.Find("label");
    if (label != nullptr && label->IsString() &&
        !seen.insert(label->AsString()).second) {
      Fail(report, which, "duplicate point label " + Brief(*label));
    }
  }
}

/// Recursive exact comparison (used for the whole "simulated" subtree).
void CompareExact(const Json& base, const Json& cur, const std::string& path,
                  DiffReport* report) {
  if (base.GetKind() != cur.GetKind()) {
    Fail(report, path, "type changed (" + Brief(base) + " -> " + Brief(cur) + ")");
    return;
  }
  switch (base.GetKind()) {
    case Json::Kind::kNumber:
      if (!NearlyEqual(base.AsNumber(), cur.AsNumber())) {
        Fail(report, path,
             "simulated value changed: " + FormatNumber(base.AsNumber()) +
                 " -> " + FormatNumber(cur.AsNumber()));
      }
      return;
    case Json::Kind::kString:
      if (base.AsString() != cur.AsString()) {
        Fail(report, path,
             "simulated value changed: " + Brief(base) + " -> " + Brief(cur));
      }
      return;
    case Json::Kind::kBool:
      if (base.AsBool() != cur.AsBool()) {
        Fail(report, path,
             "simulated value changed: " + Brief(base) + " -> " + Brief(cur));
      }
      return;
    case Json::Kind::kNull:
      return;
    case Json::Kind::kArray: {
      if (base.AsArray().size() != cur.AsArray().size()) {
        Fail(report, path, "array length changed");
        return;
      }
      for (std::size_t i = 0; i < base.AsArray().size(); ++i) {
        CompareExact(base.AsArray()[i], cur.AsArray()[i],
                     path + "[" + std::to_string(i) + "]", report);
      }
      return;
    }
    case Json::Kind::kObject: {
      for (const auto& [key, bval] : base.AsObject()) {
        const Json* cval = cur.Find(key);
        if (cval == nullptr) {
          Fail(report, path + "." + key, "key missing in current");
          continue;
        }
        CompareExact(bval, *cval, path + "." + key, report);
      }
      for (const auto& [key, cval] : cur.AsObject()) {
        (void)cval;
        if (base.Find(key) == nullptr) {
          Fail(report, path + "." + key, "key not in baseline");
        }
      }
      return;
    }
  }
}

double NumberAt(const Json& obj, const std::string& key) {
  const Json* v = obj.Find(key);
  return (v != nullptr && v->IsNumber()) ? v->AsNumber() : 0.0;
}

/// Host metric where larger is worse (wall clock, RSS).
void CheckCost(const Json& base, const Json& cur, const std::string& key,
               double tol, const std::string& path, DiffReport* report) {
  const double b = NumberAt(base, key);
  const double c = NumberAt(cur, key);
  if (b <= 0.0) return;  // no meaningful baseline
  if (c > b * (1.0 + tol)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "host regression: %s %.4g -> %.4g (+%.1f%%, tolerance %.0f%%)",
                  key.c_str(), b, c, (c / b - 1.0) * 100.0, tol * 100.0);
    Fail(report, path, buf);
  }
}

/// Host metric where smaller is worse (events/sec).
void CheckRate(const Json& base, const Json& cur, const std::string& key,
               double tol, const std::string& path, DiffReport* report) {
  const double b = NumberAt(base, key);
  const double c = NumberAt(cur, key);
  if (b <= 0.0) return;
  if (c < b * (1.0 - tol)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "host regression: %s %.4g -> %.4g (-%.1f%%, tolerance %.0f%%)",
                  key.c_str(), b, c, (1.0 - c / b) * 100.0, tol * 100.0);
    Fail(report, path, buf);
  }
}

const Json* Require(const Json& doc, const std::string& key,
                    const std::string& which, DiffReport* report) {
  const Json* v = doc.Find(key);
  if (v == nullptr) Fail(report, which, "missing \"" + key + "\"");
  return v;
}

}  // namespace

DiffReport CompareBenchJson(const Json& baseline, const Json& current,
                            const DiffOptions& options) {
  DiffReport report;
  if (!baseline.IsObject() || !current.IsObject()) {
    Fail(&report, "document", "not a JSON object");
    return report;
  }

  // The comparison is only meaningful between identical configurations.
  for (const char* key : {"schema_version", "bench", "config"}) {
    const Json* b = Require(baseline, key, "baseline", &report);
    const Json* c = Require(current, key, "current", &report);
    if (b != nullptr && c != nullptr) {
      CompareExact(*b, *c, key, &report);
    }
  }
  if (!report.Ok()) return report;

  for (const char* which : {"baseline", "current"}) {
    const Json& doc = (std::string(which) == "baseline") ? baseline : current;
    const Json* det = doc.Find("deterministic");
    if (det != nullptr && det->IsBool() && !det->AsBool()) {
      Fail(&report, which, "recorded a determinism violation");
    }
  }

  const Json* bpoints = Require(baseline, "points", "baseline", &report);
  const Json* cpoints = Require(current, "points", "current", &report);
  if (bpoints == nullptr || cpoints == nullptr || !bpoints->IsArray() ||
      !cpoints->IsArray()) {
    return report;
  }

  CheckUniqueLabels(*bpoints, "baseline", &report);
  CheckUniqueLabels(*cpoints, "current", &report);
  if (!report.Ok()) return report;

  std::map<std::string, const Json*> current_by_label;
  for (const Json& p : cpoints->AsArray()) {
    const Json* label = p.Find("label");
    if (label != nullptr && label->IsString()) {
      current_by_label[label->AsString()] = &p;
    }
  }

  std::size_t matched = 0;
  for (const Json& bp : bpoints->AsArray()) {
    const Json* label = bp.Find("label");
    if (label == nullptr || !label->IsString()) {
      Fail(&report, "baseline", "point without label");
      continue;
    }
    const std::string& name = label->AsString();
    const auto it = current_by_label.find(name);
    if (it == current_by_label.end()) {
      Fail(&report, "points[" + name + "]", "missing in current run");
      continue;
    }
    ++matched;
    const Json& cp = *it->second;

    const Json* bsim = bp.Find("simulated");
    const Json* csim = cp.Find("simulated");
    if (bsim == nullptr || csim == nullptr) {
      Fail(&report, "points[" + name + "]", "missing \"simulated\" object");
    } else {
      CompareExact(*bsim, *csim, "points[" + name + "].simulated", &report);
    }

    if (options.check_host) {
      const Json* bhost = bp.Find("host");
      const Json* chost = cp.Find("host");
      if (bhost != nullptr && chost != nullptr) {
        const std::string path = "points[" + name + "].host";
        CheckCost(*bhost, *chost, "wall_s_mean", options.host_tol, path,
                  &report);
        CheckRate(*bhost, *chost, "events_per_sec", options.host_tol, path,
                  &report);
      }
    }
  }
  if (matched < current_by_label.size()) {
    Fail(&report, "points",
         "current run has points absent from the baseline (refresh it: "
         "bench/run_suite --update-baselines)");
  }

  if (options.check_host) {
    const Json* bhost = baseline.Find("host");
    const Json* chost = current.Find("host");
    if (bhost != nullptr && chost != nullptr) {
      CheckCost(*bhost, *chost, "total_wall_s", options.host_tol, "host",
                &report);
      CheckRate(*bhost, *chost, "events_per_sec", options.host_tol, "host",
                &report);
      CheckCost(*bhost, *chost, "peak_rss_kb", options.rss_tol, "host",
                &report);
    }
  }
  return report;
}

}  // namespace fabricsim::bench

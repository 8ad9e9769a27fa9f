#include "common/failpoint.h"

#include <atomic>
#include <chrono>
#include <map>
#include <stdexcept>
#include <thread>

#include "common/logging.h"
#include "common/result.h"
#include "common/string_util.h"
#include "common/thread_safety.h"

namespace sparkline {
namespace fail {

namespace {

/// The compiled-in site list. Every SL_FAILPOINT site in the engine must
/// appear here; the chaos suite sweeps this list, and Arm() rejects names
/// that are not on it so a typo cannot silently never fire.
///
///   exec.scan          ScanExec partition tasks (borrowed partitions)
///   exec.local_task    LocalSkylineExec partition tasks
///   exec.global_task   GlobalSkyline{,Incomplete}Exec stage tasks
///                      (partial/merge/candidates/validate)
///   exec.exchange      ExchangeExec (row shuffle and columnar concat)
///   exec.stage_task    every other stage runner (project/filter/join/
///                      aggregate/sort — the generic per-task site)
///   serve.cache_insert ResultCache::Insert (degrades to uncached serving)
///   serve.delta_apply  IncrementalMaintainer delta application (degrades
///                      to invalidation — never a stale hit)
///   catalog.write      Catalog::InsertInto (publish of the successor)
constexpr const char* kSites[] = {
    "exec.scan",          "exec.local_task",   "exec.global_task",
    "exec.exchange",      "exec.stage_task",   "serve.cache_insert",
    "serve.delta_apply",  "catalog.write",
};

struct SiteState {
  bool armed = false;
  FailpointSpec spec;
  int64_t hits = 0;   ///< times the site was evaluated while armed
  int64_t fires = 0;  ///< times it actually injected its action
  uint64_t rng = 0;   ///< per-site deterministic PRNG state
};

struct Registry {
  sl::Mutex mu;
  std::map<std::string, SiteState> sites SL_GUARDED_BY(mu);

  Registry() {
    for (const char* s : kSites) sites.emplace(s, SiteState{});
  }
};

Registry& GetRegistry() {
  static Registry* r = new Registry();  // immortal: sites outlive statics
  return *r;
}

/// Number of armed sites; the disarmed-path fast check.
std::atomic<int> g_armed_count{0};

/// xorshift64* — deterministic, seedable, good enough for fault coin flips.
double NextUniform(uint64_t* state) {
  uint64_t x = *state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  *state = x;
  return static_cast<double>((x * 0x2545F4914F6CDD1Dull) >> 11) /
         static_cast<double>(1ull << 53);
}

}  // namespace

bool AnyArmed() {
  return g_armed_count.load(std::memory_order_relaxed) > 0;
}

Status Hit(const char* site) {
  FailpointSpec fired_spec;
  bool fires = false;
  {
    Registry& reg = GetRegistry();
    sl::MutexLock lock(&reg.mu);
    auto it = reg.sites.find(site);
    if (it == reg.sites.end()) {
      SL_DCHECK(false) << "SL_FAILPOINT site '" << site
                       << "' is not in the registered site list";
      return Status::OK();
    }
    SiteState& state = it->second;
    if (!state.armed) return Status::OK();
    const int64_t hit = ++state.hits;
    if (hit < state.spec.from_hit) return Status::OK();
    if (state.spec.max_fires >= 0 && state.fires >= state.spec.max_fires) {
      return Status::OK();
    }
    if (state.spec.probability < 1.0 &&
        NextUniform(&state.rng) >= state.spec.probability) {
      return Status::OK();
    }
    ++state.fires;
    fired_spec = state.spec;
    fires = true;
  }
  if (!fires) return Status::OK();

  switch (fired_spec.action) {
    case Action::kError:
      return Status(fired_spec.code,
                    StrCat("injected fault at failpoint '", site, "'"));
    case Action::kThrow:
      throw std::runtime_error(
          StrCat("injected exception at failpoint '", site, "'"));
    case Action::kDelay:
      std::this_thread::sleep_for(
          std::chrono::milliseconds(fired_spec.delay_ms));
      return Status::OK();
  }
  return Status::OK();
}

Status Arm(const std::string& site, const FailpointSpec& spec) {
  Registry& reg = GetRegistry();
  sl::MutexLock lock(&reg.mu);
  auto it = reg.sites.find(site);
  if (it == reg.sites.end()) {
    return Status::NotFound(
        StrCat("unknown failpoint '", site, "' (see RegisteredSites())"));
  }
  if (!it->second.armed) g_armed_count.fetch_add(1);
  SiteState& state = it->second;
  state.armed = true;
  state.spec = spec;
  state.hits = 0;
  state.fires = 0;
  state.rng = spec.seed != 0 ? spec.seed : 0x9E3779B97F4A7C15ull;
  return Status::OK();
}

void Disarm(const std::string& site) {
  Registry& reg = GetRegistry();
  sl::MutexLock lock(&reg.mu);
  auto it = reg.sites.find(site);
  if (it == reg.sites.end() || !it->second.armed) return;
  it->second.armed = false;
  g_armed_count.fetch_sub(1);
}

void DisarmAll() {
  Registry& reg = GetRegistry();
  sl::MutexLock lock(&reg.mu);
  for (auto& [name, state] : reg.sites) {
    if (state.armed) g_armed_count.fetch_sub(1);
    state = SiteState{};
  }
}

std::vector<std::string> RegisteredSites() {
  std::vector<std::string> out;
  for (const char* s : kSites) out.emplace_back(s);
  return out;
}

int64_t FireCount(const std::string& site) {
  Registry& reg = GetRegistry();
  sl::MutexLock lock(&reg.mu);
  auto it = reg.sites.find(site);
  return it == reg.sites.end() ? 0 : it->second.fires;
}

namespace {

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  size_t e = s.find_last_not_of(" \t");
  return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
}

Result<FailpointSpec> ParseSpec(const std::string& text) {
  FailpointSpec spec;
  // Split off trailing modifiers (@N, *N, %p[:seed]) right-to-left; the
  // remaining head is the action.
  std::string head = text;
  while (!head.empty()) {
    const size_t at = head.find_last_of("@*%");
    if (at == std::string::npos) break;
    // ':' inside delay:<ms> must not be eaten as a modifier boundary; only
    // treat the suffix as a modifier when it parses.
    const std::string suffix = head.substr(at + 1);
    const char kind = head[at];
    try {
      if (kind == '@') {
        spec.from_hit = std::stoll(suffix);
        if (spec.from_hit < 1) {
          return Status::Invalid("failpoint @from_hit must be >= 1");
        }
      } else if (kind == '*') {
        spec.max_fires = std::stoll(suffix);
        if (spec.max_fires < 0) {
          return Status::Invalid("failpoint *max_fires must be >= 0");
        }
      } else {  // '%'
        const size_t colon = suffix.find(':');
        spec.probability = std::stod(suffix.substr(0, colon));
        if (colon != std::string::npos) {
          spec.seed = static_cast<uint64_t>(
              std::stoull(suffix.substr(colon + 1)));
        }
        if (spec.probability < 0 || spec.probability > 1) {
          return Status::Invalid("failpoint %probability must be in [0, 1]");
        }
      }
    } catch (...) {
      return Status::Invalid(
          StrCat("malformed failpoint modifier '", kind, suffix, "'"));
    }
    head = head.substr(0, at);
  }

  const std::string action = ToLower(head);
  if (action == "error" || action == "error(unavailable)") {
    spec.action = Action::kError;
    spec.code = StatusCode::kUnavailable;
  } else if (action == "error(internal)") {
    spec.action = Action::kError;
    spec.code = StatusCode::kInternal;
  } else if (action == "error(execution)") {
    spec.action = Action::kError;
    spec.code = StatusCode::kExecutionError;
  } else if (action == "throw") {
    spec.action = Action::kThrow;
  } else if (action.rfind("delay:", 0) == 0) {
    spec.action = Action::kDelay;
    try {
      spec.delay_ms = std::stoll(action.substr(6));
    } catch (...) {
      return Status::Invalid(StrCat("malformed delay '", action, "'"));
    }
    if (spec.delay_ms < 0) {
      return Status::Invalid("failpoint delay must be >= 0 ms");
    }
  } else {
    return Status::Invalid(StrCat(
        "unknown failpoint action '", head,
        "' (error | error(internal) | error(execution) | throw | delay:<ms>)"));
  }
  return spec;
}

}  // namespace

Status ArmFromString(const std::string& flag_value) {
  DisarmAll();
  if (flag_value.empty()) return Status::OK();
  for (const std::string& part : Split(flag_value, ';')) {
    const std::string trimmed = Trim(part);
    if (trimmed.empty()) continue;
    const size_t eq = trimmed.find('=');
    if (eq == std::string::npos) {
      return Status::Invalid(
          StrCat("failpoint spec '", trimmed, "' is missing '='"));
    }
    SL_ASSIGN_OR_RETURN(FailpointSpec spec,
                        ParseSpec(Trim(trimmed.substr(eq + 1))));
    SL_RETURN_NOT_OK(Arm(Trim(trimmed.substr(0, eq)), spec));
  }
  return Status::OK();
}

}  // namespace fail
}  // namespace sparkline

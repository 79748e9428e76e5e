#include "cga/exec_tier.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/check.hpp"

namespace adres {

const char* execTierName(ExecTier t) {
  switch (t) {
    case ExecTier::kReference: return "reference";
    case ExecTier::kNative: return "native";
  }
  return "unknown";
}

ExecTier parseExecTier(std::string_view s) {
  if (s == "reference") return ExecTier::kReference;
  if (s == "native") return ExecTier::kNative;
  throw SimError("unknown exec tier '" + std::string(s) +
                 "' (expected reference or native)");
}

ExecTier defaultExecTier() {
  static const ExecTier tier = [] {
    const char* env = std::getenv("ADRES_EXEC_TIER");
    if (env == nullptr || *env == '\0') return ExecTier::kNative;
    try {
      return parseExecTier(env);
    } catch (const SimError& e) {
      // First read from default member initializers and flag set-up that
      // run before any main can catch: a bad environment is a usage error
      // of whichever binary is starting, reported once, here.
      std::fprintf(stderr, "error: %s in ADRES_EXEC_TIER\n", e.what());
      std::exit(2);
    }
  }();
  return tier;
}

}  // namespace adres

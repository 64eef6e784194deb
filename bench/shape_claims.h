// The paper's shape claims as a bench checks them against its own measured
// rows. A bench writes every verdict into its BENCH json under "shape", and
// under "shape_expected_false" the reason for each claim the reproduction
// does not stand behind; a false claim it does stand behind fails the run.
#ifndef SLICE_BENCH_SHAPE_CLAIMS_H_
#define SLICE_BENCH_SHAPE_CLAIMS_H_

#include <cstdio>
#include <span>
#include <string>

#include "src/obs/json.h"

namespace slice {

struct ShapeClaim {
  const char* key;
  bool holds;
  // Why the reproduction does not stand behind the claim, citing the run's
  // numbers; empty when it does, and then a false claim fails the run.
  std::string expected_false_because;
};

// Writes the "shape" and "shape_expected_false" members into the object `w`
// has open.
inline void WriteShapeClaims(obs::JsonWriter& w, std::span<const ShapeClaim> claims) {
  w.Key("shape").BeginObject();
  for (const ShapeClaim& claim : claims) {
    w.Key(claim.key).Bool(claim.holds);
  }
  w.EndObject();
  w.Key("shape_expected_false").BeginObject();
  for (const ShapeClaim& claim : claims) {
    if (!claim.expected_false_because.empty()) {
      w.Key(claim.key).String(claim.expected_false_because);
    }
  }
  w.EndObject();
}

// Prints one verdict line per claim. Returns false when a claim the
// reproduction stands behind fails.
inline bool PrintShapeClaims(std::span<const ShapeClaim> claims) {
  bool stood_behind_hold = true;
  for (const ShapeClaim& claim : claims) {
    const bool stood_behind = claim.expected_false_because.empty();
    std::printf("  %s: %s%s\n", claim.key, claim.holds ? "holds" : "fails",
                stood_behind ? "" : " (expected false, see shape_expected_false)");
    stood_behind_hold = stood_behind_hold && (claim.holds || !stood_behind);
  }
  return stood_behind_hold;
}

}  // namespace slice

#endif  // SLICE_BENCH_SHAPE_CLAIMS_H_

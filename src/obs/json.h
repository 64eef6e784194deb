// The one JSON writer behind every export: the chrome://tracing trace, the
// metrics snapshot, the flight-recorder dump, the profile, the event-code
// table and every bench's BENCH_<name>.json baseline.
//
// Output is deterministic: keys come out in the order the caller writes them
// (exporters walk ordered maps), keys and strings are always escaped, and
// every number is rendered with integer math, so the bytes never depend on
// locale or printf float behaviour and same-seed exports hash identically.
#ifndef SLICE_OBS_JSON_H_
#define SLICE_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace slice::obs {

class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  JsonWriter& Key(std::string_view name);
  JsonWriter& String(std::string_view value);
  JsonWriter& Int(int64_t value) { return Scalar(std::to_string(value)); }
  JsonWriter& UInt(uint64_t value) { return Scalar(std::to_string(value)); }
  JsonWriter& Bool(bool value) { return Scalar(value ? "true" : "false"); }
  // `units` scaled down by 10^decimals, with exactly `decimals` fraction
  // digits: Decimal(1500, 3) is 1.500 and Decimal(5, 3) is 0.005. decimals is
  // clamped to [0, 9].
  JsonWriter& Decimal(int64_t units, int decimals);
  // `value` rounded half away from zero to `decimals` fraction digits.
  JsonWriter& Fixed(double value, int decimals = 3);

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);
  JsonWriter& Scalar(std::string_view text);
  // Writes the comma before the second and later values of the enclosing
  // object or array. A value directly after Key() never takes one.
  void Separate();

  std::string out_;
  std::vector<bool> has_value_;  // one entry per open object/array
  bool after_key_ = false;
};

// Writes `bytes` to `path`, truncating. On an open, write or close failure
// it says so on stderr and returns false.
bool WriteArtifact(const std::string& path, std::string_view bytes);

}  // namespace slice::obs

#endif  // SLICE_OBS_JSON_H_

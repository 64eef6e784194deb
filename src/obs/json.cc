#include "src/obs/json.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace slice::obs {
namespace {

constexpr int64_t kPow10[10] = {1,      10,      100,      1000,      10000,
                                100000, 1000000, 10000000, 100000000, 1000000000};

}  // namespace

JsonWriter& JsonWriter::Key(std::string_view name) {
  String(name);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  Separate();
  out_ += '"';
  for (const char c : value) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (c == '\n') {
      out_ += "\\n";
    } else if (c == '\t') {
      out_ += "\\t";
    } else if (byte < 0x20) {
      static constexpr char kHex[] = "0123456789abcdef";
      out_ += "\\u00";
      out_ += kHex[byte >> 4];
      out_ += kHex[byte & 0xf];
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Decimal(int64_t units, int decimals) {
  decimals = std::clamp(decimals, 0, 9);
  Separate();
  auto magnitude = static_cast<uint64_t>(units);
  if (units < 0) {
    out_ += '-';
    magnitude = 0 - magnitude;
  }
  const auto scale = static_cast<uint64_t>(kPow10[decimals]);
  out_ += std::to_string(magnitude / scale);
  if (decimals > 0) {
    out_ += '.';
    const uint64_t frac = magnitude % scale;
    for (uint64_t digit = scale / 10; digit > 0; digit /= 10) {
      out_ += static_cast<char>('0' + frac / digit % 10);
    }
  }
  return *this;
}

JsonWriter& JsonWriter::Fixed(double value, int decimals) {
  decimals = std::clamp(decimals, 0, 9);
  return Decimal(std::llround(value * static_cast<double>(kPow10[decimals])), decimals);
}

JsonWriter& JsonWriter::Open(char bracket) {
  Separate();
  out_ += bracket;
  has_value_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  has_value_.pop_back();
  out_ += bracket;
  return *this;
}

JsonWriter& JsonWriter::Scalar(std::string_view text) {
  Separate();
  out_ += text;
  return *this;
}

void JsonWriter::Separate() {
  if (!after_key_ && !has_value_.empty()) {
    if (has_value_.back()) {
      out_ += ',';
    }
    has_value_.back() = true;
  }
  after_key_ = false;
}

bool WriteArtifact(const std::string& path, std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s: %s\n", path.c_str(), std::strerror(errno));
    return false;
  }
  const bool written = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  // fclose flushes the buffered tail, so a full disk can first show up here.
  if (std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(), std::strerror(errno));
    return false;
  }
  return true;
}

}  // namespace slice::obs

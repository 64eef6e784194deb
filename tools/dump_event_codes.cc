// Emits the event code→name table as canonical JSON (to stdout, or to the
// path in argv[1]). The table is expanded from the SLICE_EVENT_CODES X-macro
// in src/obs/eventlog.h, so it can never drift from the enum; the build
// runs this to produce event_codes.json, which tools/slice_inspect.py uses
// to resolve symbolic --code names.
#include <cstdio>
#include <string>

#include "src/obs/eventlog.h"
#include "src/obs/json.h"

int main(int argc, char** argv) {
  const std::string json = slice::obs::EventCodeTableJson();
  if (argc > 1) {
    return slice::obs::WriteArtifact(argv[1], json) ? 0 : 1;
  }
  std::fwrite(json.data(), 1, json.size(), stdout);
  return 0;
}

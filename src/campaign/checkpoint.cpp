#include "campaign/checkpoint.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "common/json_min.hpp"
#include "common/json_write.hpp"

namespace adres::campaign {
namespace {

using Exact = JsonWriter::Exact;
using Hex = JsonWriter::Hex;

/// A checkpoint counter: an integer in [0, 2^53], exact through a double.
u64 asU64(const json::JsonValue& cell, const char* key) {
  const json::JsonValue& v = cell.at(key);
  ADRES_CHECK(v.type == json::JsonValue::kNumber && v.number >= 0 &&
                  v.number <= 0x1p53 && v.number == std::floor(v.number),
              "checkpoint counter '" << key
                                     << "' is not an integer in [0, 2^53]");
  return static_cast<u64>(v.number);
}

}  // namespace

void writeCheckpoint(std::ostream& os, const SweepSpec& spec,
                     const std::vector<CellSpec>& cells,
                     const std::vector<CellResult>& results) {
  ADRES_CHECK(cells.size() == results.size(), "cells/results size mismatch");
  JsonWriter w(os);
  w.beginObject().field("schema", kCheckpointSchema);
  w.field("specHash", Hex{stableHash(spec)}).key("cells").beginArray();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellSpec& c = cells[i];
    const CellResult& r = results[i];
    if (!r.done) continue;
    const Interval ci = wilson(r.packetErrors, r.trials, spec.stop.confidence);
    w.beginObject(JsonWriter::kInline).field("key", Hex{c.key()});
    w.field("label", cellLabel(c)).field("mod", static_cast<int>(c.modem.mod));
    w.field("numSymbols", c.modem.numSymbols).field("taps", c.channel.taps);
    w.field("delaySpread", Exact{c.channel.delaySpread});
    w.field("cfoPpm", Exact{c.channel.cfoPpm});
    w.field("snrDb", Exact{c.channel.snrDb}).lineBreak();
    w.field("trials", r.trials).field("bits", r.bits);
    w.field("bitErrors", r.bitErrors).field("packetErrors", r.packetErrors);
    w.field("lostPackets", r.lostPackets).field("cycles", r.cycles);
    w.field("discardedTrials", r.discardedTrials);
    w.field("stopReason", r.stopReason).lineBreak();
    w.field("energyNj", Exact{r.energyNj}).field("per", Exact{r.per()});
    w.field("ber", Exact{r.ber()}).field("perCiLo", Exact{ci.lo});
    w.field("perCiHi", Exact{ci.hi});
    w.field("energyPerBitNj", Exact{r.energyPerBitNj()}).end();
  }
  w.end().end();
}

void writeCheckpointFile(const std::string& path, const SweepSpec& spec,
                         const std::vector<CellSpec>& cells,
                         const std::vector<CellResult>& results) {
  writeJsonFile(path, [&](std::ostream& os) {
    writeCheckpoint(os, spec, cells, results);
  });
}

std::map<u64, CellResult> loadCheckpoint(std::istream& is,
                                         const SweepSpec& spec) {
  std::ostringstream buf;
  buf << is.rdbuf();
  json::JsonValue root = json::JsonParser(buf.str()).parse();
  ADRES_CHECK(root.type == json::JsonValue::kObject, "checkpoint not an object");
  ADRES_CHECK(root.at("schema").str == kCheckpointSchema,
              "unknown checkpoint schema");
  ADRES_CHECK(root.at("specHash").str == hex64(stableHash(spec)),
              "checkpoint was written by a different sweep spec");
  std::map<u64, CellResult> out;
  for (const json::JsonValue& cell : root.at("cells").array) {
    const u64 key = parseHex64(cell.at("key").str);
    CellResult r;
    r.trials = asU64(cell, "trials");
    r.bits = asU64(cell, "bits");
    r.bitErrors = asU64(cell, "bitErrors");
    r.packetErrors = asU64(cell, "packetErrors");
    r.lostPackets = asU64(cell, "lostPackets");
    r.cycles = asU64(cell, "cycles");
    r.discardedTrials = asU64(cell, "discardedTrials");
    r.stopReason = cell.at("stopReason").str;
    ADRES_CHECK(r.stopReason == "ci" || r.stopReason == "errorBudget" ||
                    r.stopReason == "maxTrials",
                "unknown checkpoint stopReason '" << r.stopReason << '\'');
    r.energyNj = cell.at("energyNj").number;
    r.done = true;
    out.emplace(key, std::move(r));
  }
  return out;
}

std::map<u64, CellResult> loadCheckpointFile(const std::string& path,
                                             const SweepSpec& spec) {
  std::ifstream is(path);
  if (!is.good()) return {};
  return loadCheckpoint(is, spec);
}

}  // namespace adres::campaign

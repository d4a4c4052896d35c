#include "perfbench/src/spans.hpp"

#include <cstdio>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case kSession: return "session";
    case kTrafficRecord: return "traffic.record";
    case kElabBuild: return "elab.build";
    case kSessionRun: return "netsim";
    case kSyncPush: return "sync.push";
    case kRtlAdvance: return "rtl.advance";
    case kRefAdvance: return "ref.advance";
    case kBoardAdvance: return "board.advance";
    case kMappingStim: return "mapping.stim";
    case kMappingResp: return "mapping.resp";
    case kSessionDrain: return "session.drain";
    case kComparatorFinish: return "comparator.finish";
    case kLayerCount: break;
  }
  return "?";
}

void LayerTotals::add(const LayerTotals& other) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    self_s[i] += other.self_s[i];
    calls[i] += other.calls[i];
  }
}

void Tracer::open(Layer layer) {
  std::int32_t index = -1;
  if (records_.size() < kMaxRecords) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back().record;
    index = static_cast<std::int32_t>(records_.size());
    records_.push_back({0, 0, parent, session_, layer});
  } else {
    ++dropped_;
  }
  stack_.push_back({now_ns(), 0, index, layer});
}

void Tracer::close() {
  const std::int64_t end = now_ns();
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end - f.start_ns;
  totals_.self_s[f.layer] += static_cast<double>(dur - f.child_ns) * 1e-9;
  ++totals_.calls[f.layer];
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (f.record >= 0) {
    records_[static_cast<std::size_t>(f.record)].start_ns = f.start_ns;
    records_[static_cast<std::size_t>(f.record)].end_ns = end;
  }
}

LayerTotals Tracer::take_totals() {
  LayerTotals out = totals_;
  totals_ = LayerTotals{};
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"fields\":[\"name\",\"session\",\"parent\",\"start_ns\","
                  "\"end_ns\"],\"dropped\":%llu,\"spans\":[",
               static_cast<unsigned long long>(dropped_));
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f, "%s[\"%s\",%u,%d,%lld,%lld]", i == 0 ? "" : ",\n",
                 layer_name(r.layer), r.session, r.parent,
                 static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

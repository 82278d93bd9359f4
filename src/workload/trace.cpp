#include "workload/trace.h"

#include <array>
#include <string>
#include <string_view>

#include "common/assert.h"
#include "common/parse.h"

namespace rfh {

namespace {

bool is_blank_or_comment(const std::string& line) {
  for (const char c : line) {
    if (c == '#') return true;
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

/// Split a CSV row into exactly 4 fields; aborts on other shapes.
std::array<std::string_view, 4> split4(std::string_view line) {
  std::array<std::string_view, 4> out;
  std::size_t field = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == ',') {
      RFH_ASSERT_MSG(field < out.size(), "trace row has too many fields");
      out[field++] = line.substr(start, i - start);
      start = i + 1;
    }
  }
  RFH_ASSERT_MSG(field == out.size(), "trace row has too few fields");
  return out;
}

}  // namespace

TraceWorkload TraceWorkload::from_csv(std::istream& in) {
  std::vector<QueryBatch> epochs;
  std::string line;
  bool first_content_line = true;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (is_blank_or_comment(line)) continue;
    if (first_content_line && line.rfind("epoch,", 0) == 0) {
      first_content_line = false;
      continue;  // header
    }
    first_content_line = false;
    const auto fields = split4(line);
    std::uint32_t epoch = 0;
    std::uint32_t partition = 0;
    std::uint32_t requester = 0;
    double queries = 0.0;
    RFH_ASSERT_MSG(parse_uint(fields[0], epoch) &&
                       parse_uint(fields[1], partition) &&
                       parse_uint(fields[2], requester),
                   "malformed integer in trace");
    RFH_ASSERT_MSG(parse_finite(fields[3], queries),
                   "malformed number in trace");
    RFH_ASSERT_MSG(queries >= 0.0, "negative demand in trace");
    if (epoch >= epochs.size()) epochs.resize(epoch + 1);
    epochs[epoch].push_back(QueryFlow{PartitionId{partition},
                                      DatacenterId{requester}, queries});
  }
  return TraceWorkload(std::move(epochs));
}

QueryBatch TraceWorkload::generate(Epoch epoch, Rng& /*rng*/) {
  if (epoch >= epochs_.size()) return {};
  return epochs_[epoch];
}

void write_trace_csv(std::ostream& out, std::span<const QueryBatch> epochs) {
  out << "epoch,partition,requester,queries\n";
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    for (const QueryFlow& flow : epochs[e]) {
      out << e << ',' << flow.partition.value() << ','
          << flow.requester.value() << ',' << flow.queries << '\n';
    }
  }
}

QueryBatch RecordingWorkload::generate(Epoch epoch, Rng& rng) {
  QueryBatch batch = inner_->generate(epoch, rng);
  if (epoch >= recorded_.size()) recorded_.resize(epoch + 1);
  recorded_[epoch] = batch;
  return batch;
}

}  // namespace rfh

#include "src/castanet/message.hpp"

namespace castanet::cosim {

TimedMessage make_cell_message(MessageType type, SimTime ts,
                               const atm::Cell& c) {
  TimedMessage m;
  m.type = type;
  m.timestamp = ts;
  m.cell = c;
  return m;
}

TimedMessage make_word_message(MessageType type, SimTime ts,
                               std::vector<std::uint64_t> words) {
  TimedMessage m;
  m.type = type;
  m.timestamp = ts;
  m.words = std::move(words);
  return m;
}

TimedMessage make_time_update(SimTime ts) {
  TimedMessage m;
  m.timestamp = ts;
  m.time_update_only = true;
  return m;
}

void MessageChannel::send(TimedMessage m) {
  queue_.push_back(std::move(m));
  ++sent_;
}

std::optional<TimedMessage> MessageChannel::receive() {
  if (queue_.empty()) return std::nullopt;
  TimedMessage m = std::move(queue_.front());
  queue_.pop_front();
  return m;
}

}  // namespace castanet::cosim

#include "src/castanet/entity.hpp"

#include "src/castanet/backend.hpp"

namespace castanet::cosim {

void CosimEntity::register_input(MessageType type, std::uint64_t delta_cycles,
                                 ApplyFn apply) {
  backend_.sync().declare_input(type, delta_cycles);
  apply_[type] = std::move(apply);
}

void CosimEntity::send_cell_response(MessageType type, const atm::Cell& c) {
  backend_.respond(type, backend_.hdl().now(), c);
}

void CosimEntity::send_word_response(MessageType type,
                                     std::vector<std::uint64_t> words) {
  backend_.respond_words(type, backend_.hdl().now(), std::move(words));
}

}  // namespace castanet::cosim

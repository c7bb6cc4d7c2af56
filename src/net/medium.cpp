#include "net/medium.hpp"

#include "common/assert.hpp"
#include "net/radio.hpp"

namespace hi::net {

Medium::Medium(des::Kernel& kernel, channel::ChannelModel& channel,
               const obs::RunTrace* trace)
    : kernel_(kernel), channel_(channel), trace_(trace) {}

void Medium::attach(Radio* radio) {
  HI_REQUIRE(radio != nullptr, "attach: null radio");
  const int id = radio->channel_id();
  HI_REQUIRE(id >= 0, "attach: negative channel id " << id);
  const auto slot = static_cast<std::size_t>(id);
  if (row_of_.size() <= slot) {
    row_of_.resize(slot + 1, -1);
  }
  HI_REQUIRE(row_of_[slot] < 0, "attach: duplicate radio at channel id " << id);
  Row own;
  own.ids.reserve(radios_.size());
  own.radios.reserve(radios_.size());
  for (std::size_t k = 0; k < radios_.size(); ++k) {
    own.ids.push_back(radios_[k]->channel_id());
    own.radios.push_back(radios_[k]);
    rows_[k].ids.push_back(id);
    rows_[k].radios.push_back(radio);
  }
  row_of_[slot] = static_cast<int>(rows_.size());
  rows_.push_back(std::move(own));
  radios_.push_back(radio);
  batch_pl_.resize(radios_.size() - 1);
}

void Medium::begin_transmission(Radio& tx, const Packet& p,
                                double duration_s) {
  const std::uint64_t tx_id = next_tx_id_++;
  ++stats_.transmissions;
  const double now = kernel_.now();
  if (trace_ != nullptr) {
    trace_->record(obs::TraceEvent{now, obs::TraceKind::kTx, tx.location(),
                                   p.origin, p.seq,
                                   static_cast<double>(p.bytes), duration_s});
  }
  // Batched fan-out: sample every receiver's path loss in one channel
  // call, in attach order (the default batch implementation is the
  // per-pair loop, so fade draws are bit-identical), then offer signals.
  const auto slot = static_cast<std::size_t>(tx.channel_id());
  HI_ASSERT_MSG(slot < row_of_.size() && row_of_[slot] >= 0,
                "transmission from unattached channel id " << slot);
  const Row& row = rows_[static_cast<std::size_t>(row_of_[slot])];
  const std::size_t fanout = row.ids.size();
  channel_.path_loss_batch_db(tx.channel_id(), row.ids.data(), fanout, now,
                              batch_pl_.data());
  if (free_lists_.empty()) {
    free_lists_.push_back(static_cast<std::uint32_t>(receivers_.size()));
    receivers_.emplace_back().reserve(fanout);
  }
  const std::uint32_t list = free_lists_.back();
  free_lists_.pop_back();
  std::vector<Radio*>& heard = receivers_[list];
  heard.clear();
  for (std::size_t k = 0; k < fanout; ++k) {
    Radio* rx = row.radios[k];
    const double rx_dbm = tx.params().tx_dbm - batch_pl_[k];
    const bool foreign = rx->net_id() != tx.net_id();
    if (rx_dbm < rx->params().sensitivity_dbm) {
      ++stats_.below_sensitivity;
      if (foreign) {
        ++stats_.cross_below_sensitivity;
      }
      continue;
    }
    ++stats_.deliveries_offered;
    if (foreign) {
      ++stats_.cross_offered;
    }
    rx->signal_start(tx_id, rx_dbm, p, foreign);
    heard.push_back(rx);
  }
  kernel_.schedule_in(duration_s, [this, &tx, tx_id, list] {
    end_transmission(tx, tx_id, list);
  });
}

void Medium::end_transmission(Radio& tx, std::uint64_t tx_id,
                              std::uint32_t list) {
  // Indexed, not iterated: a signal_end may start a transmission that
  // grows receivers_, which moves this list's vector (its buffer, and
  // so the entries, stay put; this list is not free until below).
  const std::size_t n = receivers_[list].size();
  for (std::size_t i = 0; i < n; ++i) {
    receivers_[list][i]->signal_end(tx_id);
  }
  kernel_.credit_events(n);
  free_lists_.push_back(list);
  tx.finish_transmit();
}

}  // namespace hi::net

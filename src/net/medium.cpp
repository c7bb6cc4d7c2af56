#include "net/medium.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "net/radio.hpp"

namespace hi::net {

Medium::Medium(des::Kernel& kernel, channel::ChannelModel& channel,
               const obs::RunTrace* trace)
    : kernel_(kernel), channel_(channel), trace_(trace) {}

void Medium::attach(Radio* radio) {
  HI_REQUIRE(radio != nullptr, "attach: null radio");
  HI_REQUIRE(std::none_of(radios_.begin(), radios_.end(),
                          [&](const Radio* r) {
                            return r->channel_id() == radio->channel_id();
                          }),
             "attach: duplicate radio at channel id " << radio->channel_id());
  radios_.push_back(radio);
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
  // Batched fan-out: collect every other radio's channel id, sample all
  // path losses in one channel call (same pairs, same order as the
  // historical per-pair loop — the default batch implementation *is*
  // that loop, so fade draws are bit-identical), then offer signals.
  batch_ids_.clear();
  const std::size_t fanout = radios_.size() - 1;
  if (batch_ids_.capacity() < fanout) {
    batch_ids_.reserve(radios_.size());
    batch_pl_.reserve(radios_.size());
  }
  for (Radio* rx : radios_) {
    if (rx->channel_id() != tx.channel_id()) {
      batch_ids_.push_back(rx->channel_id());
    }
  }
  batch_pl_.resize(batch_ids_.size());
  channel_.path_loss_batch_db(tx.channel_id(), batch_ids_.data(),
                              batch_ids_.size(), now, batch_pl_.data());
  if (free_lists_.empty()) {
    free_lists_.push_back(static_cast<std::uint32_t>(receivers_.size()));
    receivers_.emplace_back().reserve(fanout);
  }
  const std::uint32_t list = free_lists_.back();
  free_lists_.pop_back();
  std::vector<Radio*>& heard = receivers_[list];
  heard.clear();
  std::size_t k = 0;
  for (Radio* rx : radios_) {
    if (rx->channel_id() == tx.channel_id()) {
      continue;
    }
    const double rx_dbm = tx.params().tx_dbm - batch_pl_[k++];
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

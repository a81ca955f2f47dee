#include "sim/actor.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "common/span.hpp"

namespace byzcast::sim {

Actor::Actor(ExecutionEnv& env, std::string name)
    : env_(env),
      id_(env.allocate_pid()),
      name_(std::move(name)),
      auth_(env.keys(), id_),
      rng_(env.fork_rng()),
      alive_(std::make_shared<int>(0)) {
  env_.attach(id_, this);
}

Actor::~Actor() {
  alive_.reset();  // pending timers fire into a no-op from here on
  env_.detach(id_);
}

Time Actor::service_cost(const WireMessage&) const { return 0; }

void Actor::enqueue(WireMessage msg) {
  if (crashed_) return;
  msg.enqueued_at = env_.now();
  if (msg.verify_verdict == 0 && stage_verifiable(msg)) {
    if (StageBackend* stages = env_.stages();
        stages != nullptr && stages->verify_workers() > 0) {
      // Runtime backend: real worker pool. The message re-enters via
      // enqueue_verified on this actor's executor lane, in any order.
      msg.verify_ticket = verify_issued_++;
      stages->submit_verify(id_, std::move(msg));
      return;
    }
    if (const std::uint32_t workers = env_.profile().verify_workers;
        workers > 0) {
      // Simulated verify pool. Engages only when this message has a nonzero
      // offloadable share (the wallclock profile zeroes every share, so the
      // net backend never takes this path).
      if (const Time vcost = stage_verify_cost(msg); vcost > 0) {
        model_stage_verify(std::move(msg), workers, vcost);
        return;
      }
    }
  }
  inbox_.push_back(std::move(msg));
  maybe_drain();
}

void Actor::enqueue_verified(WireMessage msg) {
  if (crashed_) return;
  if (msg.enqueued_at < 0) msg.enqueued_at = env_.now();
  if (msg.verify_ticket != verify_released_) {
    park_verified(std::move(msg));
    return;
  }
  inbox_.push_back(std::move(msg));
  ++verify_released_;
  // Release the successors that finished first.
  while (!verify_parked_.empty()) {
    auto& slot =
        verify_parked_[verify_released_ & (verify_parked_.size() - 1)];
    if (!slot) break;
    inbox_.push_back(std::move(*slot));
    slot.reset();
    ++verify_released_;
  }
  maybe_drain();
}

void Actor::park_verified(WireMessage msg) {
  BZC_EXPECTS(msg.verify_ticket > verify_released_);
  const std::uint64_t ahead = msg.verify_ticket - verify_released_;
  if (ahead >= verify_parked_.size()) {
    std::size_t size = std::max<std::size_t>(16, verify_parked_.size());
    while (size <= ahead) size *= 2;
    std::vector<std::optional<WireMessage>> grown(size);
    for (auto& slot : verify_parked_) {
      if (slot) grown[slot->verify_ticket & (size - 1)] = std::move(slot);
    }
    verify_parked_ = std::move(grown);
  }
  auto& slot =
      verify_parked_[msg.verify_ticket & (verify_parked_.size() - 1)];
  slot = std::move(msg);
}

void Actor::stage_preverify(WireMessage& msg) const {
  msg.verify_verdict =
      (msg.to == id_ && auth_.verify(msg.from, msg.payload, msg.mac)) ? 1 : -1;
  if (msg.verify_verdict == 1) stage_precompute(msg);
}

void Actor::model_stage_verify(WireMessage msg, std::uint32_t workers,
                               Time vcost) {
  // Host-side the verification really happens (verdict + digests must be
  // correct); simulated time charges it to the earliest-free pool server.
  stage_preverify(msg);
  if (verify_busy_.size() < workers) verify_busy_.resize(workers, 0);
  auto slot =
      std::min_element(verify_busy_.begin(), verify_busy_.begin() + workers);
  const Time done = std::max(env_.now(), *slot) + vcost;
  *slot = done;
  // A result never overtakes an earlier submission: it is ready no sooner
  // than its predecessor, so it reaches the ticket frontier in turn.
  const Time ready = std::max(done, verify_frontier_);
  verify_frontier_ = ready;
  msg.verify_ticket = verify_issued_++;
  env_.schedule(id_, ready - env_.now(),
                [this, weak = std::weak_ptr<void>(alive_),
                 m = std::move(msg)]() mutable {
                  if (weak.expired()) return;
                  enqueue_verified(std::move(m));
                });
}

void Actor::maybe_drain() {
  if (draining_ || inbox_.empty() || crashed_) return;
  draining_ = true;
  WireMessage msg = std::move(inbox_.front());
  inbox_.pop_front();
  msg.svc_start = env_.now();
  const Time cost = service_cost(msg);
  // The drain continuations are internal deferred work and carry the same
  // alive guard as user timers: teardown with messages still queued leaves
  // only no-op events behind.
  env_.schedule(
      id_, cost,
      [this, weak = std::weak_ptr<void>(alive_), m = std::move(msg)]() mutable {
        if (weak.expired()) return;
        if (!crashed_) {
          extra_busy_ = 0;
          on_message(m);
          stamp_actor_spans(m);
          const Time extra = extra_busy_;
          extra_busy_ = 0;
          if (extra > 0) {
            // Stay busy for the CPU consumed while handling (e.g. sends).
            env_.schedule(id_, extra,
                          [this, weak = std::weak_ptr<void>(alive_)] {
                            if (weak.expired()) return;
                            draining_ = false;
                            maybe_drain();
                          });
            return;
          }
        }
        draining_ = false;
        maybe_drain();
      });
}

void Actor::stamp_actor_spans(const WireMessage& m) const {
  SpanLog* spans = env_.spans();
  if (spans == nullptr || !spans->actor_spans()) return;
  // Per-replica infrastructure tracks: where this actor's wall time went for
  // this one wire message. `detail` carries the protocol type tag so the
  // Chrome trace can color by message kind.
  const auto tag =
      m.payload.empty() ? std::int64_t{-1} : std::int64_t{m.payload.view()[0]};
  if (m.enqueued_at >= 0 && m.svc_start >= m.enqueued_at) {
    spans->record(Span{MessageId{}, SpanKind::kActorMailbox, GroupId{}, id_,
                       m.enqueued_at, m.svc_start, tag});
  }
  if (m.svc_start >= 0) {
    spans->record(Span{MessageId{}, SpanKind::kActorService, GroupId{}, id_,
                       m.svc_start, env_.now(), tag});
  }
}

void Actor::send(ProcessId to, Buffer payload) {
  if (crashed_) return;
  consume_cpu(env_.profile().cpu_send);
  WireMessage msg;
  msg.from = id_;
  msg.to = to;
  msg.mac = auth_.sign(to, payload);
  msg.payload = std::move(payload);
  msg.sent_at = env_.now();
  env_.send_message(std::move(msg));
}

bool Actor::verify(const WireMessage& msg) const {
  if (msg.verify_verdict != 0) return msg.verify_verdict > 0;
  return msg.to == id_ && auth_.verify(msg.from, msg.payload, msg.mac);
}

void Actor::send_from_stage(ProcessId to, Buffer payload) {
  WireMessage msg;
  msg.from = id_;
  msg.to = to;
  msg.mac = auth_.sign(to, payload);
  msg.payload = std::move(payload);
  msg.sent_at = env_.now();
  env_.send_message(std::move(msg));
}

void Actor::schedule_in(Time delay, std::function<void()> fn) {
  env_.schedule(id_, delay,
                [weak = std::weak_ptr<void>(alive_), fn = std::move(fn)] {
                  if (!weak.expired()) fn();
                });
}

}  // namespace byzcast::sim

#include "loadgen.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace net = vicinity::net;

namespace {

/// A point is the generator's fault when its median send ran this late...
constexpr double kMaxLateUs = 200.0;
/// ...while less than this share of the window was spent blocked in writes
/// (a server that stops reading back-pressures the writes instead).
constexpr double kMaxBlockedShare = 0.10;
/// Replies still missing this long after the last send count unanswered.
constexpr std::uint64_t kDrainNs = 2'000'000'000;
constexpr std::uint64_t kTickNs = 50'000'000;

void sleep_until_ns(std::uint64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t)));
}

void parse_sample(const Plan& plan, std::size_t idx, unsigned fanout,
                  std::span<const std::uint8_t> payload, PointStats& out) {
  SampledReply s;
  s.req = plan.req[idx];
  net::FrameReader rd(payload);
  s.epoch = rd.u64();
  switch (s.req.kind) {
    case Kind::kDistance:
      s.records.push_back(net::read_distance_record(rd));
      break;
    case Kind::kDistances: {
      const std::span<const NodeId> t = plan.targets_of(s.req, fanout);
      s.targets.assign(t.begin(), t.end());
      const std::uint32_t n = rd.u32();
      for (std::uint32_t k = 0; k < n; ++k) {
        s.records.push_back(net::read_distance_record(rd));
      }
      break;
    }
    case Kind::kPath: {
      s.records.push_back(net::read_distance_record(rd));
      const std::uint32_t n = rd.u32();
      for (std::uint32_t k = 0; k < n; ++k) s.path.push_back(rd.u32());
      break;
    }
    default:
      return;
  }
  rd.expect_end();
  out.samples.push_back(std::move(s));
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return kNever;
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return kNever;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4;
  const std::size_t hi = std::max(lo + 1, v.size() - v.size() / 4);
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

double slice_percentile(const std::vector<double>& v, double q,
                        std::size_t slices) {
  slices = std::max<std::size_t>(1, std::min(slices, v.size()));
  std::vector<double> per_slice;
  for (std::size_t k = 0; k < slices; ++k) {
    per_slice.push_back(percentile(
        std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(
                                            k * v.size() / slices),
                            v.begin() + static_cast<std::ptrdiff_t>(
                                            (k + 1) * v.size() / slices)),
        q));
  }
  return percentile(std::move(per_slice), 25);
}

bool PointStats::generator_behind() const {
  return slice_percentile(late_us, 50, slices) > kMaxLateUs &&
         send_blocked_s < kMaxBlockedShare * seconds;
}

void PointStats::absorb(PointStats&& o) {
  const auto append = [](auto& into, auto& from) {
    into.insert(into.end(), std::make_move_iterator(from.begin()),
                std::make_move_iterator(from.end()));
  };
  rate = o.rate;
  seconds += o.seconds;
  slices += o.slices;
  reads += o.reads;
  ok += o.ok;
  busy += o.busy;
  timeouts += o.timeouts;
  errors += o.errors;
  unanswered += o.unanswered;
  ok_in_window += o.ok_in_window;
  send_calls += o.send_calls;
  send_blocked_s += o.send_blocked_s;
  append(read_us, o.read_us);
  append(path_us, o.path_us);
  append(late_us, o.late_us);
  append(updates, o.updates);
  append(samples, o.samples);
}

PointStats run_point(net::Client& conn, const Plan& plan,
                     const PointOptions& opt) {
  const std::size_t n = plan.size();
  PointStats out;
  out.rate = plan.rate;
  out.seconds = plan.seconds;
  out.slices = static_cast<std::size_t>(std::max(1L, std::lround(plan.seconds / 0.5)));
  out.late_us.assign(n, 0.0);
  std::vector<double> latency(n, kNever);
  std::vector<std::uint8_t> status(n, 0xff);  // 0xff = unanswered

  const std::uint64_t start = now_ns() + 2'000'000;  // both threads ready
  const std::uint64_t window_end =
      start + static_cast<std::uint64_t>(plan.seconds * 1e9);
  std::atomic<std::uint64_t> sender_done_at{0};
  std::exception_ptr sender_error;

  std::thread sender([&] {
    // Default timer slack (50us) would dominate the lateness we report.
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    try {
      std::size_t i = 0;
      while (i < n) {
        std::uint64_t now = now_ns();
        if (now < start + plan.due_ns[i]) {
          sleep_until_ns(start + plan.due_ns[i]);
          now = now_ns();
        }
        std::size_t j = i;
        while (j < n && start + plan.due_ns[j] <= now) ++j;
        conn.send_bytes(plan.wire.data() + plan.offset[i],
                        plan.offset[j] - plan.offset[i]);
        const std::uint64_t after = now_ns();
        out.send_blocked_s += static_cast<double>(after - now) * 1e-9;
        ++out.send_calls;
        for (std::size_t k = i; k < j; ++k) {
          out.late_us[k] =
              static_cast<double>(now - (start + plan.due_ns[k])) * 1e-3;
        }
        i = j;
      }
    } catch (...) {
      sender_error = std::current_exception();
    }
    sender_done_at.store(now_ns(), std::memory_order_release);
  });

  std::vector<std::uint8_t> buf(1u << 20);
  std::size_t have = 0;
  std::size_t answered = 0;
  std::uint64_t next_tick = now_ns();
  std::exception_ptr receiver_error;
  try {
    while (answered < n) {
      const std::uint64_t now = now_ns();
      if (opt.tick && now >= next_tick) {
        opt.tick();
        next_tick = now + kTickNs;
      }
      const std::uint64_t done = sender_done_at.load(std::memory_order_acquire);
      if (done != 0 && (sender_error || now > done + kDrainNs)) {
        break;
      }
      std::size_t got = 0;
      try {
        got = conn.recv_some(buf.data() + have, buf.size() - have);
      } catch (const net::ClientTimeout&) {
        continue;  // idle; re-check the deadline and the tick
      }
      if (got == 0) throw std::runtime_error("server closed the connection");
      have += got;
      const std::uint64_t recv_at = now_ns();
      std::size_t off = 0;
      while (have - off >= net::kFrameHeaderBytes) {
        const net::FrameHeader h = net::decode_header(
            std::span<const std::uint8_t>(buf.data() + off,
                                          net::kFrameHeaderBytes));
        const std::size_t len = net::kFrameHeaderBytes + h.payload_len;
        if (len > buf.size()) throw std::runtime_error("reply frame too big");
        if (have - off < len) break;
        const std::span<const std::uint8_t> payload(
            buf.data() + off + net::kFrameHeaderBytes, h.payload_len);
        off += len;
        if (h.request_id < plan.first_id ||
            h.request_id >= plan.first_id + n) {
          continue;  // a straggler of an earlier point, already counted
        }
        const std::size_t idx = h.request_id - plan.first_id;
        if (status[idx] != 0xff) {
          throw std::runtime_error("duplicate reply id");
        }
        status[idx] = static_cast<std::uint8_t>(h.status);
        ++answered;
        const double lat =
            static_cast<double>(recv_at - (start + plan.due_ns[idx])) * 1e-3;
        const Request& r = plan.req[idx];
        if (!is_read(r.kind)) {
          UpdateAck a;
          a.req = r;
          a.ok = h.status == net::Status::kOk;
          if (a.ok) {
            net::FrameReader rd(payload);
            a.reply = net::read_update_reply(rd);
            a.latency_us = lat;
          }
          out.updates.push_back(a);
          continue;
        }
        if (h.status != net::Status::kOk) continue;
        latency[idx] = lat;
        if (recv_at <= window_end) ++out.ok_in_window;
        if (r.kind == Kind::kPath) out.path_us.push_back(lat);
        if (opt.sample_every > 0 && idx % opt.sample_every == 0) {
          parse_sample(plan, idx, opt.fanout, payload, out);
        }
      }
      if (off > 0 && off < have) {
        std::memmove(buf.data(), buf.data() + off, have - off);
      }
      have -= off;
    }
  } catch (...) {
    receiver_error = std::current_exception();
  }
  sender.join();
  if (sender_error) std::rethrow_exception(sender_error);
  if (receiver_error) std::rethrow_exception(receiver_error);

  for (std::size_t i = 0; i < n; ++i) {
    if (!is_read(plan.req[i].kind)) {
      if (status[i] == 0xff) {
        UpdateAck a;
        a.req = plan.req[i];
        out.updates.push_back(a);  // unanswered update
      }
      continue;
    }
    ++out.reads;
    out.read_us.push_back(latency[i]);
    switch (status[i]) {
      case 0xff:
        ++out.unanswered;
        break;
      case static_cast<std::uint8_t>(net::Status::kOk):
        ++out.ok;
        break;
      case static_cast<std::uint8_t>(net::Status::kBusy):
        ++out.busy;
        break;
      case static_cast<std::uint8_t>(net::Status::kTimeout):
        ++out.timeouts;
        break;
      default:
        ++out.errors;
        break;
    }
  }
  return out;
}

}  // namespace perfbench

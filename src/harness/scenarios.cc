#include "harness/scenarios.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <tuple>

#include "cc/registry.h"
#include "chaos/oracle.h"
#include "chaos/plan.h"
#include "dyn/driver.h"
#include "dyn/reactive.h"
#include "energy/path_selector.h"
#include "energy/radio_power.h"
#include "mptcp/path_manager.h"
#include "mptcp/scheduler.h"
#include "stats/flow_recorder.h"
#include "tcp/dctcp.h"
#include "traffic/bulk_flow.h"
#include "traffic/permutation.h"

namespace mpcc::harness {

namespace {

MptcpConfig make_mptcp_config(Bytes flow_size, SimTime min_rto, Bytes recv_buffer = 0) {
  MptcpConfig cfg;
  cfg.flow_size = flow_size;
  cfg.recv_buffer = recv_buffer;
  cfg.subflow.min_rto = min_rto;
  return cfg;
}

}  // namespace

// ---------------------------------------------------------------- two-path

TwoPathResult run_two_path(const TwoPathOptions& options) {
  SimContext ctx(options.seed);
  SimContext::Scope scope(ctx);
  return run_two_path(ctx, options);
}

TwoPathResult run_two_path(SimContext& ctx, const TwoPathOptions& options) {
  Network net(ctx);
  TwoPath topo(net, options.topo);

  MptcpConfig mcfg = make_mptcp_config(-1, 200 * kMillisecond);
  // Under chaos a subflow can be starved indefinitely (ack blackhole);
  // consecutive-RTO dead declaration keeps the liveness oracle honest.
  if (!options.chaos.empty()) mcfg.subflow.dead_after_timeouts = 6;
  auto* conn = net.emplace<MptcpConnection>(net, "mptcp", mcfg,
                                            make_multipath_cc(options.cc, options.price));
  for (const PathSpec& path : topo.paths()) conn->add_subflow(path);

  std::unique_ptr<chaos::ChaosDriver> chaos_driver;
  std::unique_ptr<chaos::StreamOracle> stream_oracle;
  std::unique_ptr<chaos::LivenessOracle> liveness;
  if (!options.chaos.empty()) {
    chaos_driver = std::make_unique<chaos::ChaosDriver>(net.events());
    chaos_driver->add_network(net);
    chaos_driver->arm(chaos::ChaosSpec::parse_or_load(options.chaos), options.seed,
                      options.duration / 10, options.duration / 2);
    stream_oracle = std::make_unique<chaos::StreamOracle>(*conn);
    liveness = std::make_unique<chaos::LivenessOracle>(net.events(), *conn);
    liveness->start();
  }

  WiredCpuPower power_model;
  HostMeter meter(net, "host", power_model);
  meter.probe().add_connection(conn);
  if (options.record_trace) meter.meter().enable_trace();
  meter.start();

  FlowRecorder recorder(net, options.trace_period);
  if (options.record_trace) {
    recorder.track_connection("goodput", *conn);
    recorder.start();
  }

  topo.start_cross_traffic(0);
  conn->start(100 * kMillisecond);
  net.events().run_until(options.duration);

  TwoPathResult result;
  result.run.energy_j = meter.energy_j();
  result.run.avg_power_w = meter.avg_power_w();
  result.run.bytes_delivered = conn->bytes_delivered();
  result.run.duration = options.duration;
  std::uint64_t sent = 0;
  std::uint64_t retx = 0;
  for (const Subflow* sf : conn->subflows()) {
    result.subflow_bytes.push_back(sf->bytes_acked_total());
    sent += sf->packets_sent();
    retx += sf->retransmits();
  }
  result.run.retransmit_rate =
      sent > 0 ? static_cast<double>(retx) / static_cast<double>(sent) : 0.0;
  if (stream_oracle != nullptr) {
    stream_oracle->verify();
    result.chaos_faults = chaos_driver->faults_applied();
    result.chaos_injected = chaos_driver->injected_total();
    result.oracle_checks = stream_oracle->checks() + liveness->checks();
  }
  if (options.record_trace) {
    for (const auto& [t, w] : meter.meter().trace()) result.power_trace.add(t, w);
    if (const TimeSeries* s = recorder.series("goodput")) result.tput_trace = *s;
  }
  return result;
}

// ---------------------------------------------------------------- dumbbell

DumbbellResult run_dumbbell(const DumbbellOptions& options) {
  SimContext ctx(options.seed);
  SimContext::Scope scope(ctx);
  return run_dumbbell(ctx, options);
}

DumbbellResult run_dumbbell(SimContext& ctx, const DumbbellOptions& options) {
  Network net(ctx);
  DumbbellConfig topo_cfg = options.topo;
  topo_cfg.mptcp_users = options.n_users;
  topo_cfg.tcp_users = 2 * options.n_users;
  Dumbbell topo(net, topo_cfg);

  WiredCpuPower power_model;
  Rng rng = net.rng().fork(7);

  // Background regular TCP (long-lived), one per TCP user.
  for (std::size_t u = 0; u < topo_cfg.tcp_users; ++u) {
    const PathSpec path = topo.tcp_path(u);
    TcpFlowHandles flow = make_tcp_flow(net, "tcp" + std::to_string(u), path.forward,
                                        path.reverse);
    flow.src->start(rng.uniform_int(0, 50 * kMillisecond));
  }

  // N MPTCP users, each transferring flow_bytes.
  DumbbellResult result;
  result.per_flow_energy_j.resize(options.n_users, 0);
  result.completion_s.resize(options.n_users, 0);
  std::vector<std::unique_ptr<HostMeter>> meters;
  std::size_t remaining = options.n_users;

  std::vector<MptcpConnection*> conns;
  for (std::size_t u = 0; u < options.n_users; ++u) {
    auto* conn = net.emplace<MptcpConnection>(
        net, "m" + std::to_string(u),
        make_mptcp_config(options.flow_bytes, 200 * kMillisecond),
        make_multipath_cc(options.cc));
    PathManager::fullmesh(*conn, topo.mptcp_paths(u));
    auto meter = std::make_unique<HostMeter>(net, "meter" + std::to_string(u),
                                             power_model);
    meter->probe().add_connection(conn);
    meter->start();
    HostMeter* meter_raw = meter.get();
    meters.push_back(std::move(meter));
    conn->set_on_complete([&, u, meter_raw](MptcpConnection& c) {
      meter_raw->stop();
      result.per_flow_energy_j[u] = meter_raw->energy_j();
      result.completion_s[u] = to_seconds(c.completion_time() - c.start_time());
      --remaining;
    });
    conn->start(100 * kMillisecond + rng.uniform_int(0, 100 * kMillisecond));
    conns.push_back(conn);
  }

  std::unique_ptr<chaos::ChaosDriver> chaos_driver;
  std::vector<std::unique_ptr<chaos::StreamOracle>> oracles;
  if (!options.chaos.empty()) {
    chaos_driver = std::make_unique<chaos::ChaosDriver>(net.events());
    chaos_driver->add_network(net);
    chaos_driver->arm(chaos::ChaosSpec::parse_or_load(options.chaos), options.seed,
                      options.max_time / 20, options.max_time / 4);
    for (MptcpConnection* conn : conns) {
      oracles.push_back(std::make_unique<chaos::StreamOracle>(*conn));
    }
  }

  // Run until all MPTCP transfers finish (or the safety cap).
  while (remaining > 0 && net.now() < options.max_time) {
    net.events().run_until(net.now() + kSecond);
  }
  result.incomplete = remaining;
  for (const auto& m : meters) result.total_energy_j += m->energy_j();
  for (const auto& oracle : oracles) {
    oracle->verify();
    result.oracle_checks += oracle->checks();
  }
  if (chaos_driver != nullptr) {
    result.chaos_faults = chaos_driver->faults_applied();
    result.chaos_injected = chaos_driver->injected_total();
  }
  return result;
}

// -------------------------------------------------------------- datacenter

const char* dc_topo_name(DcTopo topo) {
  switch (topo) {
    case DcTopo::kFatTree:
      return "fattree";
    case DcTopo::kVl2:
      return "vl2";
    case DcTopo::kBCube:
      return "bcube";
    case DcTopo::kVirtualCloud:
      return "cloud";
  }
  return "?";
}

DatacenterResult run_datacenter(const DatacenterOptions& options) {
  SimContext ctx(options.seed);
  SimContext::Scope scope(ctx);
  return run_datacenter(ctx, options);
}

DatacenterResult run_datacenter(SimContext& ctx, const DatacenterOptions& options) {
  Network net(ctx);

  std::unique_ptr<Topology> owned;
  switch (options.topo) {
    case DcTopo::kFatTree:
      owned = std::make_unique<FatTree>(net, options.fat_tree);
      break;
    case DcTopo::kVl2:
      owned = std::make_unique<Vl2>(net, options.vl2);
      break;
    case DcTopo::kBCube:
      owned = std::make_unique<BCube>(net, options.bcube);
      break;
    case DcTopo::kVirtualCloud:
      owned = std::make_unique<VirtualCloud>(net, options.cloud);
      break;
  }
  Topology& topo = *owned;

  Rng rng = net.rng().fork(11);
  std::vector<FlowAssignment> assignments;
  if (options.pattern == "permutation") {
    assignments = permutation_traffic(topo.num_hosts(), rng, 50 * kMillisecond);
  } else if (options.pattern == "incast") {
    assignments = incast_traffic(topo.num_hosts(), rng, 50 * kMillisecond);
  } else {
    throw std::invalid_argument("unknown traffic pattern \"" + options.pattern +
                                "\" (permutation|incast)");
  }
  if (options.max_flows > 0 && assignments.size() > options.max_flows) {
    assignments.resize(options.max_flows);
  }

  const bool single_path = options.cc == "tcp" || options.cc == "dctcp";
  WiredCpuPower power_model;
  std::vector<std::unique_ptr<HostMeter>> meters;
  std::vector<MptcpConnection*> conns;
  std::vector<TcpSrc*> tcp_flows;

  for (const FlowAssignment& a : assignments) {
    std::vector<PathSpec> paths = topo.paths(a.src_host, a.dst_host);
    assert(!paths.empty());
    auto meter = std::make_unique<HostMeter>(
        net, "meter" + std::to_string(a.src_host), power_model);

    if (single_path) {
      const PathSpec& path =
          paths[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(paths.size()) - 1))];
      TcpConfig cfg;
      cfg.min_rto = options.min_rto;
      if (options.cc == "dctcp") cfg = dctcp_tcp_config(cfg);
      TcpFlowHandles flow = make_tcp_flow(net, "f" + std::to_string(a.src_host),
                                          path.forward, path.reverse, cfg);
      if (options.cc == "dctcp") flow.src->set_hooks(std::make_unique<DctcpHooks>());
      flow.src->start(a.start_time);
      meter->probe().add_flow(flow.src);
      tcp_flows.push_back(flow.src);
    } else {
      auto* conn = net.emplace<MptcpConnection>(
          net, "c" + std::to_string(a.src_host),
          make_mptcp_config(-1, options.min_rto),
          make_multipath_cc(options.cc, options.price));
      PathManager::random_k_with_reuse(*conn, paths, options.subflows, rng);
      conn->start(a.start_time);
      meter->probe().add_connection(conn);
      conns.push_back(conn);
    }
    meter->start();
    meters.push_back(std::move(meter));
  }

  net.events().run_until(options.duration);

  DatacenterResult result;
  result.flows = assignments.size();
  for (const auto& m : meters) result.total_energy_j += m->energy_j();
  for (const MptcpConnection* c : conns) result.bytes_delivered += c->bytes_delivered();
  for (const TcpSrc* f : tcp_flows) result.bytes_delivered += f->bytes_acked_total();
  result.aggregate_goodput = throughput(result.bytes_delivered, options.duration);
  if (result.bytes_delivered > 0) {
    result.joules_per_gigabyte =
        result.total_energy_j / (static_cast<double>(result.bytes_delivered) / 1e9);
  }
  for (const Queue* q : net.queues()) result.fabric_drops += q->drops();
  return result;
}

// ---------------------------------------------------------------- wireless

WirelessResult run_wireless(const WirelessOptions& options) {
  SimContext ctx(options.seed);
  SimContext::Scope scope(ctx);
  return run_wireless(ctx, options);
}

WirelessResult run_wireless(SimContext& ctx, const WirelessOptions& options) {
  Network net(ctx);
  WirelessHetero topo(net, options.topo);
  const std::vector<PathSpec> paths = topo.paths();

  RadioPower wifi_model(wifi_radio_config());
  RadioPower cell_model(lte_radio_config());
  HostMeter wifi_meter(net, "wifi", wifi_model, 20 * kMillisecond);
  HostMeter cell_meter(net, "cell", cell_model, 20 * kMillisecond);

  MptcpConnection* conn = nullptr;
  TcpSrc* tcp = nullptr;

  if (options.cc == "tcp-wifi" || options.cc == "tcp-cell") {
    const PathSpec& path = paths[options.cc == "tcp-wifi" ? 0 : 1];
    TcpConfig cfg;
    cfg.max_cwnd = options.recv_buffer;
    TcpFlowHandles flow = make_tcp_flow(net, options.cc, path.forward, path.reverse, cfg);
    flow.src->start(100 * kMillisecond);
    tcp = flow.src;
    (options.cc == "tcp-wifi" ? wifi_meter : cell_meter).probe().add_flow(flow.src);
  } else {
    // "emptcp" = the eMPTCP-style path-selection baseline: LIA plus an
    // energy-aware selector quiescing the LTE subflow while WiFi delivers.
    const bool path_selection = options.cc == "emptcp";
    conn = net.emplace<MptcpConnection>(
        net, "mp", make_mptcp_config(-1, 200 * kMillisecond, options.recv_buffer),
        make_multipath_cc(path_selection ? "lia" : options.cc, options.price));
    // The kernel's default scheduler: under receive-window pressure, the
    // lowest-RTT subflow gets the data first.
    conn->set_scheduler(std::make_unique<MinRttScheduler>(1 << 20));  // always prefer
    conn->add_subflow(paths[0]);
    conn->add_subflow(paths[1]);
    wifi_meter.probe().add_flow(&conn->subflow(0));
    cell_meter.probe().add_flow(&conn->subflow(1));
    conn->start(100 * kMillisecond);
    if (path_selection) {
      auto* selector = net.emplace<EnergyAwarePathSelector>(
          net, *conn, /*costly_subflow=*/1, PathSelectorConfig{});
      selector->start();
    }
  }
  wifi_meter.start();
  cell_meter.start();

  topo.start_cross_traffic(0);
  net.events().run_until(options.duration);

  WirelessResult result;
  result.wifi_energy_j = wifi_meter.energy_j();
  result.cell_energy_j = cell_meter.energy_j();
  result.radio_energy_j = result.wifi_energy_j + result.cell_energy_j;
  if (conn != nullptr) {
    result.wifi_bytes = conn->subflow(0).bytes_acked_total();
    result.cell_bytes = conn->subflow(1).bytes_acked_total();
    result.bytes_delivered = conn->bytes_delivered();
  } else {
    result.bytes_delivered = tcp->bytes_acked_total();
    (options.cc == "tcp-wifi" ? result.wifi_bytes : result.cell_bytes) =
        result.bytes_delivered;
  }
  result.goodput = throughput(result.bytes_delivered, options.duration);
  // Marginal per-byte energy from the radios' per-Mbps slopes:
  // J/byte = 8 * watts_per_mbps / 1e6.
  const double wifi_j_per_byte = 8.0 * wifi_model.config().watts_per_mbps / 1e6;
  const double cell_j_per_byte = 8.0 * cell_model.config().watts_per_mbps / 1e6;
  result.marginal_energy_j =
      wifi_j_per_byte * static_cast<double>(result.wifi_bytes) +
      cell_j_per_byte * static_cast<double>(result.cell_bytes);
  if (result.bytes_delivered > 0) {
    const double gb = static_cast<double>(result.bytes_delivered) / 1e9;
    result.joules_per_gigabyte = result.radio_energy_j / gb;
    result.marginal_joules_per_gigabyte = result.marginal_energy_j / gb;
  }
  return result;
}

// ---------------------------------------------------------------- handover

namespace {

dyn::LinkHandle wireless_link_handle(WirelessHetero& topo, std::size_t p) {
  dyn::LinkHandle h;
  h.fwd_queue = topo.forward_queue(p);
  h.rev_queue = topo.reverse_queue(p);
  h.fwd_lossy = topo.forward_pipe(p);
  h.rev_lossy = topo.reverse_pipe(p);
  h.fwd_pipe = h.fwd_lossy;
  h.rev_pipe = h.rev_lossy;
  return h;
}

/// Builds the wireless MPTCP connection + dyn plumbing shared by the
/// handover and flaky-wifi scenarios.
struct WirelessDynRig {
  WirelessDynRig(Network& net, WirelessHetero& topo, const std::string& cc,
                 Bytes recv_buffer, int dead_after_timeouts,
                 const core::EnergyPriceConfig& price, const std::string& script)
      : wifi_model(wifi_radio_config()),
        cell_model(lte_radio_config()),
        wifi_meter(net, "wifi", wifi_model, 20 * kMillisecond),
        cell_meter(net, "cell", cell_model, 20 * kMillisecond),
        driver(net.events()) {
    MptcpConfig cfg = make_mptcp_config(-1, 200 * kMillisecond, recv_buffer);
    cfg.subflow.dead_after_timeouts = dead_after_timeouts;
    conn = net.emplace<MptcpConnection>(net, "mp", cfg, make_multipath_cc(cc, price));
    conn->set_scheduler(std::make_unique<MinRttScheduler>(1 << 20));
    const std::vector<PathSpec> paths = topo.paths();
    conn->add_subflow(paths[0]);
    conn->add_subflow(paths[1]);
    wifi_meter.probe().add_flow(&conn->subflow(0));
    cell_meter.probe().add_flow(&conn->subflow(1));

    driver.add_link("wifi", wireless_link_handle(topo, 0));
    driver.add_link("cell", wireless_link_handle(topo, 1));
    manager = std::make_unique<dyn::ReactivePathManager>(*conn);
    manager->map_link("wifi", 0);
    manager->map_link("cell", 1);
    driver.add_listener(manager.get());
    script_text = script;
  }

  /// arm() after any extra listeners are registered.
  void arm() {
    if (!script_text.empty()) driver.arm(dyn::DynScript::parse_or_load(script_text));
  }

  RadioPower wifi_model;
  RadioPower cell_model;
  HostMeter wifi_meter;
  HostMeter cell_meter;
  dyn::DynDriver driver;
  std::unique_ptr<dyn::ReactivePathManager> manager;
  MptcpConnection* conn = nullptr;
  std::string script_text;
};

}  // namespace

HandoverResult run_handover(const HandoverOptions& options) {
  SimContext ctx(options.seed);
  SimContext::Scope scope(ctx);
  return run_handover(ctx, options);
}

HandoverResult run_handover(SimContext& ctx, const HandoverOptions& options) {
  Network net(ctx);
  WirelessHetero topo(net, options.topo);
  WirelessDynRig rig(net, topo, options.cc, options.recv_buffer,
                     options.dead_after_timeouts, options.price, options.dyn);
  rig.wifi_meter.meter().enable_trace();

  HandoverResult result;

  // Captures the subflow byte counters at the first handover directive
  // (listeners run before any quiescing changes behaviour, and byte
  // counters are unaffected by set_admin_down either way).
  struct Snapshot final : dyn::DynListener {
    MptcpConnection& conn;
    Network& net;
    HandoverResult& result;
    Snapshot(MptcpConnection& c, Network& n, HandoverResult& r)
        : conn(c), net(n), result(r) {}
    void on_handover(const std::string&, const std::string&) override {
      if (result.handover_time >= 0) return;
      result.handover_time = net.now();
      result.wifi_bytes_at_handover = conn.subflow(0).bytes_acked_total();
      result.cell_bytes_at_handover = conn.subflow(1).bytes_acked_total();
    }
  } snapshot(*rig.conn, net, result);
  rig.driver.add_listener(&snapshot);
  rig.arm();

  rig.wifi_meter.start();
  rig.cell_meter.start();
  topo.start_cross_traffic(0);
  rig.conn->start(100 * kMillisecond);
  net.events().run_until(options.duration);

  result.wifi_bytes = rig.conn->subflow(0).bytes_acked_total();
  result.cell_bytes = rig.conn->subflow(1).bytes_acked_total();
  result.bytes_delivered = rig.conn->bytes_delivered();
  result.goodput = throughput(result.bytes_delivered, options.duration);
  result.wifi_energy_j = rig.wifi_meter.energy_j();
  result.cell_energy_j = rig.cell_meter.energy_j();
  result.radio_energy_j = result.wifi_energy_j + result.cell_energy_j;
  result.handovers = rig.manager->handovers();
  result.subflow_closes = rig.manager->closes();
  result.subflow_reopens = rig.manager->reopens();
  result.dyn_actions = rig.driver.actions_applied();

  // Radio-state evidence: after the handover the WiFi radio drains its
  // in-flight ACKs, lingers at tail power for tail_duration, then idles.
  // Anchor the windows on the last ACTIVE sample (power >= active base)
  // instead of the handover instant, so the ~1 RTT of post-handover ACK
  // activity does not blur the boundaries.
  if (result.handover_time >= 0) {
    const auto& trace = rig.wifi_meter.meter().trace();
    const RadioPowerConfig& rc = rig.wifi_model.config();
    SimTime last_active = result.handover_time;
    for (const auto& [t, w] : trace) {
      if (t > result.handover_time && w >= rc.active_base_watts) last_active = t;
    }
    double tail_sum = 0, idle_sum = 0;
    int tail_n = 0, idle_n = 0;
    const SimTime tail_end = last_active + rc.tail_duration;
    for (const auto& [t, w] : trace) {
      if (t > last_active && t <= tail_end - 20 * kMillisecond) {
        tail_sum += w;
        ++tail_n;
      } else if (t > tail_end + 40 * kMillisecond &&
                 t <= tail_end + 1040 * kMillisecond) {
        idle_sum += w;
        ++idle_n;
      }
    }
    if (tail_n > 0) result.wifi_tail_power_w = tail_sum / tail_n;
    if (idle_n > 0) result.wifi_idle_power_w = idle_sum / idle_n;
  }
  return result;
}

// -------------------------------------------------------------- flaky wifi

FlakyWifiResult run_flaky_wifi(const FlakyWifiOptions& options) {
  SimContext ctx(options.seed);
  SimContext::Scope scope(ctx);
  return run_flaky_wifi(ctx, options);
}

FlakyWifiResult run_flaky_wifi(SimContext& ctx, const FlakyWifiOptions& options) {
  Network net(ctx);
  WirelessHetero topo(net, options.topo);
  WirelessDynRig rig(net, topo, options.cc, options.recv_buffer,
                     options.dead_after_timeouts, options.price, options.dyn);
  rig.arm();

  // Split the run's traffic at degrade_at to measure how decisively the CC
  // evacuates the degrading path.
  Bytes wifi_at = 0, cell_at = 0;
  Timer split(net.events(), "flaky:split", [&] {
    wifi_at = rig.conn->subflow(0).bytes_acked_total();
    cell_at = rig.conn->subflow(1).bytes_acked_total();
  });
  split.arm_at(options.degrade_at);

  rig.wifi_meter.start();
  rig.cell_meter.start();
  topo.start_cross_traffic(0);
  rig.conn->start(100 * kMillisecond);
  net.events().run_until(options.duration);

  FlakyWifiResult result;
  result.wifi_bytes = rig.conn->subflow(0).bytes_acked_total();
  result.cell_bytes = rig.conn->subflow(1).bytes_acked_total();
  result.bytes_delivered = rig.conn->bytes_delivered();
  result.goodput = throughput(result.bytes_delivered, options.duration);
  result.wifi_energy_j = rig.wifi_meter.energy_j();
  result.cell_energy_j = rig.cell_meter.energy_j();
  result.radio_energy_j = result.wifi_energy_j + result.cell_energy_j;
  result.wifi_losses = topo.forward_pipe(0)->losses() + topo.reverse_pipe(0)->losses();
  result.dyn_actions = rig.driver.actions_applied();

  const auto share = [](Bytes wifi, Bytes cell) {
    return wifi + cell > 0
               ? static_cast<double>(wifi) / static_cast<double>(wifi + cell)
               : 0.0;
  };
  result.wifi_share = share(result.wifi_bytes, result.cell_bytes);
  result.wifi_share_before = share(wifi_at, cell_at);
  result.wifi_share_after =
      share(result.wifi_bytes - wifi_at, result.cell_bytes - cell_at);
  return result;
}

// ------------------------------------------------------ chaos self-healing

namespace {

/// One complete two-path rig for the differential check. Members are
/// declared in dependency order (the meter references the power model, the
/// topology and connection live in the network).
struct HealRig {
  WiredCpuPower power;
  std::unique_ptr<Network> net;
  std::unique_ptr<TwoPath> topo;
  MptcpConnection* conn = nullptr;
  std::unique_ptr<HostMeter> meter;

  // Previous-window snapshots for rate-split / energy-per-byte deltas.
  Bytes prev_sf0 = 0, prev_sf1 = 0, prev_delivered = 0;
  double prev_energy = 0;

  /// Raw per-window deltas; ratios are formed over suffix aggregates.
  struct WindowSample {
    Bytes d0 = 0, d1 = 0, dd = 0;
    double de = 0;
  };

  void build(SimContext& c, const ChaosHealOptions& options, bool faulted) {
    net = std::make_unique<Network>(c);
    topo = std::make_unique<TwoPath>(*net, options.topo);
    MptcpConfig cfg = make_mptcp_config(-1, 200 * kMillisecond);
    // Both rigs get identical configs — the only difference between them
    // may be the fault injection itself.
    cfg.subflow.dead_after_timeouts = 6;
    conn = net->emplace<MptcpConnection>(*net, "mptcp", cfg,
                                         make_multipath_cc(options.cc, options.price));
    for (const PathSpec& path : topo->paths()) conn->add_subflow(path);
    meter = std::make_unique<HostMeter>(*net, "host", power);
    meter->probe().add_connection(conn);
    meter->start();
    topo->start_cross_traffic(0);
    conn->start(100 * kMillisecond);
    (void)faulted;
  }

  /// Advances the previous-window snapshot and returns this window's raw
  /// per-path byte, delivered-byte, and energy deltas.
  WindowSample window_sample() {
    const Bytes sf0 = conn->subflow(0).bytes_acked_total();
    const Bytes sf1 = conn->subflow(1).bytes_acked_total();
    const Bytes delivered = conn->bytes_delivered();
    const double energy = meter->energy_j();
    WindowSample s;
    s.d0 = sf0 - prev_sf0;
    s.d1 = sf1 - prev_sf1;
    s.dd = delivered - prev_delivered;
    s.de = energy - prev_energy;
    prev_sf0 = sf0;
    prev_sf1 = sf1;
    prev_delivered = delivered;
    prev_energy = energy;
    return s;
  }
};

/// Path-0 traffic share of an aggregated sample (0.5 when no traffic).
double sample_split(const HealRig::WindowSample& s) {
  const double total = static_cast<double>(s.d0) + static_cast<double>(s.d1);
  return total > 0 ? static_cast<double>(s.d0) / total : 0.5;
}

/// Energy per delivered byte of an aggregated sample (0 when no delivery).
double sample_epb(const HealRig::WindowSample& s) {
  return s.dd > 0 ? s.de / static_cast<double>(s.dd) : 0.0;
}

}  // namespace

ChaosHealResult run_chaos_heal(const ChaosHealOptions& options) {
  SimContext ctx(options.seed);
  SimContext::Scope scope(ctx);
  return run_chaos_heal(ctx, options);
}

ChaosHealResult run_chaos_heal(SimContext& ctx, const ChaosHealOptions& options) {
  const chaos::ChaosSpec spec = chaos::ChaosSpec::parse_or_load(options.chaos);
  if (options.window <= 0 || options.duration < 2 * options.window) {
    throw std::invalid_argument("chaos_heal: duration must cover >= 2 windows");
  }

  // Baseline rig: its own context from the same seed, nested scope-by-scope
  // so its components bind their lazily-resolved observability handles to
  // the baseline context, not the faulted run's.
  SimContext base_ctx(options.seed);
  HealRig base;
  {
    SimContext::Scope base_scope(base_ctx);
    base.build(base_ctx, options, /*faulted=*/false);
  }

  // Faulted rig in the caller's context (the guard's watchdog and perf
  // ledger are armed there).
  HealRig faulted;
  faulted.build(ctx, options, /*faulted=*/true);

  chaos::ChaosDriver driver(faulted.net->events());
  driver.add_network(*faulted.net);
  driver.arm(spec, options.seed, options.duration / 10, options.duration / 2);

  chaos::StreamOracle stream_oracle(*faulted.conn);
  chaos::LivenessOracle liveness(faulted.net->events(), *faulted.conn,
                                 options.stall_window);
  liveness.start();
  if (options.mutation) faulted.conn->sink(0).arm_mutation_skip_retransmit();

  // Lockstep windows: advance both sims by `window`, record each rig's raw
  // per-window deltas, and audit the faulted run's reassembly contract.
  struct Window {
    SimTime end;
    HealRig::WindowSample base;
    HealRig::WindowSample faulted;
  };
  std::vector<Window> windows;
  ChaosHealResult result;
  for (SimTime t = options.window; t <= options.duration; t += options.window) {
    Window w;
    w.end = t;
    {
      SimContext::Scope base_scope(base_ctx);
      base.net->events().run_until(t);
      w.base = base.window_sample();
    }
    faulted.net->events().run_until(t);
    w.faulted = faulted.window_sample();
    stream_oracle.verify();
    windows.push_back(w);
  }

  // Self-healing is judged on suffix aggregates, not single windows: once
  // the two runs desynchronize, per-window AIMD dynamics differ chaotically
  // even after a full heal, so re-convergence means the *time-averaged*
  // rate split and energy-per-byte from some post-clear boundary onward
  // match the baseline. The earliest such boundary dates the recovery.
  const SimTime clear = driver.last_fault_clear();
  std::size_t i0 = windows.size();
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (windows[i].end >= clear) {
      i0 = i;
      break;
    }
  }
  if (i0 == windows.size() || windows.size() - i0 < 2) {
    throw chaos::OracleViolation(
        "differential",
        "campaign leaves no post-fault healing phase (last fault clears at " +
            std::to_string(to_seconds(clear)) + "s of a " +
            std::to_string(to_seconds(options.duration)) + "s run)");
  }
  // Aggregates windows [b, last] of each rig and returns the differential
  // split / energy-per-byte errors for that suffix.
  const auto suffix_err = [&](std::size_t b) {
    HealRig::WindowSample bs, fs;
    for (std::size_t i = b; i < windows.size(); ++i) {
      bs.d0 += windows[i].base.d0;
      bs.d1 += windows[i].base.d1;
      bs.dd += windows[i].base.dd;
      bs.de += windows[i].base.de;
      fs.d0 += windows[i].faulted.d0;
      fs.d1 += windows[i].faulted.d1;
      fs.dd += windows[i].faulted.dd;
      fs.de += windows[i].faulted.de;
    }
    const double split_err = std::abs(sample_split(fs) - sample_split(bs));
    const double base_epb = sample_epb(bs);
    const double epb = sample_epb(fs);
    const double epb_err =
        base_epb > 0 ? std::abs(epb - base_epb) / base_epb : (epb > 0 ? 1.0 : 0.0);
    return std::pair<double, double>{split_err, epb_err};
  };
  // Suffixes shorter than two windows are too noisy to certify a heal.
  std::size_t first_good = windows.size();
  double split_err = 0, epb_err = 0;
  for (std::size_t b = i0; b + 2 <= windows.size(); ++b) {
    std::tie(split_err, epb_err) = suffix_err(b);
    if (split_err <= options.split_tol && epb_err <= options.epb_tol) {
      first_good = b;
      break;
    }
  }
  if (first_good == windows.size()) {
    std::tie(split_err, epb_err) = suffix_err(i0);
    throw chaos::OracleViolation(
        "differential",
        "faulted run never re-converged to baseline after the campaign "
        "cleared at " +
            std::to_string(to_seconds(clear)) + "s (post-clear split_err=" +
            std::to_string(split_err) + " epb_err=" + std::to_string(epb_err) +
            ")");
  }

  // The healed suffix starts at the *beginning* of window first_good.
  result.recovery_s = std::max(
      0.0, to_seconds(windows[first_good].end - options.window) - to_seconds(clear));
  result.mtbf_s = driver.mtbf_s();
  result.faults = driver.faults_applied();
  result.chaos_injected = driver.injected_total();
  result.oracle_checks = stream_oracle.checks() + liveness.checks();
  result.split_err_final = split_err;
  result.epb_err_final = epb_err;
  result.bytes_delivered = faulted.conn->bytes_delivered();
  result.goodput = throughput(result.bytes_delivered, options.duration);

  // Land the self-healing metrics in the faulted run's perf ledger so sweep
  // checkpoints and the sweep summary carry them.
  ctx.perf().recovery_s = result.recovery_s;
  ctx.perf().mtbf_s = result.mtbf_s;
  return result;
}

}  // namespace mpcc::harness

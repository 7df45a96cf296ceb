// seneca_boardd: one simulated ZCU104 board behind a SENECA-Wire socket.
// The worker half of the distributed serving tier — a Supervisor fork/execs
// a fleet of these and a ClusterRouter routes to them over RemoteBoards.
//
//   ./seneca_boardd --listen tcp:127.0.0.1:0 --endpoint-file /tmp/b0.ep
//                   --xmodel 4M.xmodel,2M.xmodel [--workers 2]
//                   [--queue-capacity 32] [--rung-offset 0]
//                   [--online-reprice] [--name worker0]
//
// --xmodel lists the ladder, best rung first: compiled .xmodel files (the
// Supervisor writes them; so does edge_deployment). Like VART on the board,
// boardd only loads: each file must parse and pass dpu::verify with no
// error finding, or boardd exits with kModelRefusedExit before it binds.
//
// With --listen tcp:...:0 the kernel picks the port; the resolved endpoint
// is published through --endpoint-file (write-to-temp + rename, so a reader
// never sees a partial write). SIGTERM/SIGINT request an orderly stop.

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dpu/verify.hpp"
#include "dpu/xmodel.hpp"
#include "serve/net/boardd.hpp"
#include "util/cli.hpp"

namespace {

using namespace seneca;

serve::net::BoardDaemon* g_daemon = nullptr;

void on_signal(int) {
  if (g_daemon != nullptr) g_daemon->stop();  // atomic store: signal-safe
}

std::vector<std::string> split_list(const std::string& spec) {
  std::vector<std::string> items;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  if (items.empty()) {
    throw std::invalid_argument("--xmodel needs at least one .xmodel path");
  }
  return items;
}

/// The load gate: parse the file, then verify it. Returns false, with the
/// reason on stderr, when the model must not be served.
bool load_verified(const std::string& path, dpu::XModel& model) {
  try {
    model = dpu::XModel::load(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[boardd] cannot load %s: %s\n", path.c_str(),
                 e.what());
    return false;
  }
  const std::vector<dpu::Finding> findings = dpu::verify(model);
  if (dpu::has_errors(findings)) {
    std::fprintf(stderr, "[boardd] %s fails verification:\n%s", path.c_str(),
                 dpu::format_findings(model, findings).c_str());
    return false;
  }
  return true;
}

/// Publish the endpoint atomically: a reader either sees nothing or the
/// complete line, never a torn write.
void publish_endpoint(const std::string& path, const std::string& spec) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write " + tmp);
    out << spec << "\n";
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot rename " + tmp + " -> " + path);
  }
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const std::string listen = cli.get("listen", "tcp:127.0.0.1:0");
  const std::string endpoint_file = cli.get("endpoint-file", "");
  const std::vector<std::string> paths = split_list(cli.get("xmodel", ""));
  const int workers = static_cast<int>(cli.get_int("workers", 2));
  const auto capacity =
      static_cast<std::size_t>(cli.get_int("queue-capacity", 32));

  serve::net::BoardDaemonConfig cfg;
  cfg.listen = serve::net::Endpoint::parse(listen);
  cfg.board.name = cli.get("name", "boardd");
  cfg.board.rung_offset = static_cast<int>(cli.get_int("rung-offset", 0));
  cfg.board.online_reprice = cli.get_bool("online-reprice", false);

  for (const std::string& path : paths) {
    dpu::XModel model;
    if (!load_verified(path, model)) return serve::net::kModelRefusedExit;
    cfg.board.ladder.push_back({model.name, std::move(model), workers});
  }

  cfg.board.server.queue.capacity = capacity;
  cfg.board.server.batcher.max_batch_size = 4;
  cfg.board.server.batcher.max_wait_ms = 15.0;
  cfg.board.server.batcher.interactive_max_wait_ms = 0.0;
  cfg.board.server.batcher.interactive_max_batch_size = 1;
  cfg.board.server.degrade.queue_depth_high = 6;
  cfg.board.server.degrade.queue_depth_low = 2;
  cfg.board.server.degrade.min_dwell_ms = 25.0;

  serve::net::BoardDaemon daemon(std::move(cfg));
  g_daemon = &daemon;
  struct sigaction sa = {};
  sa.sa_handler = on_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  const std::string resolved = daemon.endpoint().to_string();
  if (!endpoint_file.empty()) publish_endpoint(endpoint_file, resolved);
  std::fprintf(stderr, "[boardd] %s serving on %s\n",
               daemon.board().name().c_str(), resolved.c_str());

  daemon.run();
  g_daemon = nullptr;
  std::fprintf(stderr, "[boardd] stopped\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "[boardd] fatal: %s\n", e.what());
  return 1;
}

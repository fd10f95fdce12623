// cats_submit: client for the cats_served stencil service.
//
//   cats_submit --socket /tmp/cats.sock submit --kernel const2d \
//       --nx 256 --ny 256 -T 32 [--selftest]
//   cats_submit stats | ping | shutdown [--cancel]
//
// submit prints the server's one-line JSON result. --selftest additionally
// runs the same job in-process and compares grid checksums — the wire-level
// bit-exactness check the CI smoke job relies on (exit 1 on mismatch).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "serve/client.hpp"
#include "serve/exec.hpp"
#include "serve/protocol.hpp"

namespace {

const char* kUsage =
    "usage: cats_submit [--socket PATH] <command> [options]\n"
    "commands:\n"
    "  submit   --kernel const2d|const2d_f32|const3d --nx N --ny N\n"
    "           [--nz N] -T N [--tenant NAME] [--seed N] [--threads N]\n"
    "           [--scheme S] [--split auto|never|force] [--selftest]\n"
    "  stats    print the server's scheduler statistics (JSON)\n"
    "  ping     check liveness\n"
    "  shutdown [--cancel]  drain (or cancel+drain) the server\n";

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "cats_submit: %s\n", msg.c_str());
  std::exit(1);
}

std::string default_socket() {
  if (const char* p = std::getenv("CATS_SERVE_SOCKET")) return p;
  return "/tmp/cats_served.sock";
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = default_socket();
  std::string command;
  cats::serve::JobRequest job;
  bool selftest = false;
  bool cancel = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) die(a + " needs a value\n" + kUsage);
      return argv[++i];
    };
    if (a == "--socket") {
      socket_path = next();
    } else if (a == "--kernel") {
      job.kernel = next();
    } else if (a == "--tenant") {
      job.tenant = next();
    } else if (a == "--nx") {
      job.nx = std::atoll(next());
    } else if (a == "--ny") {
      job.ny = std::atoll(next());
    } else if (a == "--nz") {
      job.nz = std::atoll(next());
    } else if (a == "-T" || a == "--timesteps") {
      job.t_steps = std::atoi(next());
    } else if (a == "--seed") {
      job.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (a == "--threads") {
      job.threads = std::atoi(next());
    } else if (a == "--scheme") {
      if (!cats::serve::parse_scheme(next(), &job.scheme))
        die("unknown scheme");
    } else if (a == "--split") {
      const std::string s = next();
      if (s == "auto") {
        job.split = cats::serve::JobRequest::Split::Auto;
      } else if (s == "never") {
        job.split = cats::serve::JobRequest::Split::Never;
      } else if (s == "force") {
        job.split = cats::serve::JobRequest::Split::Force;
      } else {
        die("unknown split policy");
      }
    } else if (a == "--selftest") {
      selftest = true;
    } else if (a == "--cancel") {
      cancel = true;
    } else if (a == "--help" || a == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (!a.empty() && a[0] != '-' && command.empty()) {
      command = a;
    } else {
      die("unknown option " + a + "\n" + kUsage);
    }
  }
  if (command.empty()) die(std::string("no command\n") + kUsage);

  cats::serve::Client client;
  std::string err;
  if (!client.connect(socket_path, &err)) die(err);

  if (command == "ping") {
    if (!client.ping(&err)) die(err);
    std::puts("pong");
    return 0;
  }
  if (command == "stats") {
    std::string json;
    if (!client.stats(&json, &err)) die(err);
    std::puts(json.c_str());
    return 0;
  }
  if (command == "shutdown") {
    if (!client.shutdown_server(cancel, &err)) die(err);
    std::puts(cancel ? "cancelling" : "draining");
    return 0;
  }
  if (command != "submit") die("unknown command " + command + "\n" + kUsage);

  if (!cats::serve::validate_job(job, &err)) die(err);
  const std::optional<cats::serve::JobResult> r = client.submit(job, &err);
  if (!r.has_value()) die(err);
  std::puts(cats::serve::encode_result(*r).c_str());
  if (r->status != cats::serve::JobStatus::Done) return 1;

  if (selftest) {
    // Local replay of the same request: the server's checksum must match
    // bit for bit regardless of sharding/batching decisions on its side.
    cats::serve::ExecEnv env;
    env.threads = job.threads > 0 ? job.threads : 1;
    cats::serve::JobRequest local = job;
    local.split = cats::serve::JobRequest::Split::Never;
    const cats::serve::JobResult mine =
        cats::serve::execute_job(local, env);
    if (mine.status != cats::serve::JobStatus::Done)
      die("selftest local run failed: " + mine.error);
    if (mine.checksum != r->checksum) {
      std::fprintf(stderr,
                   "cats_submit: SELFTEST MISMATCH server=%016llx "
                   "local=%016llx\n",
                   static_cast<unsigned long long>(r->checksum),
                   static_cast<unsigned long long>(mine.checksum));
      return 1;
    }
    std::fprintf(stderr, "cats_submit: selftest ok (checksum %016llx)\n",
                 static_cast<unsigned long long>(r->checksum));
  }
  return 0;
}

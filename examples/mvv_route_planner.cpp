// The paper's §5.1 showcase as a runnable application: a journey planner
// over the (synthetic) Muenchner Verkehrs-Verbund knowledge base. The
// timetable facts live in the external database; the route-finding rules
// are stored there too, as compiled WAM code (the Educe* configuration).
//
//   $ ./examples/mvv_route_planner [from_stop to_stop start_minute]
//   $ ./examples/mvv_route_planner stop10 stop14 480

#include <cstdio>
#include <cstdlib>
#include <string>

#include "educe/engine.h"
#include "workloads/mvv.h"

namespace {

void Fatal(const educe::base::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

std::string Clock(int minutes) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%02d:%02d", minutes / 60, minutes % 60);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("Loading the MVV knowledge base (2307 stops, 8776 trip "
              "segments)...\n");
  educe::workloads::MvvWorkload mvv;
  educe::EngineOptions options;
  options.buffer_frames = 1024;
  educe::Engine engine(options);
  Fatal(mvv.Setup(&engine, /*rules_external=*/true), "setup");

  const int start = argc > 3 ? std::atoi(argv[3]) : 480;
  std::string from, to;
  if (argc > 2) {
    from = argv[1];
    to = argv[2];
  } else {
    // Pick a pair that is actually served after the start time.
    auto pair = engine.First("connection(L, F, T, D, A), D >= " +
                             std::to_string(start));
    Fatal(pair.status(), "pick default stops");
    from = (*pair)["F"];
    to = (*pair)["T"];
  }

  std::printf("Journeys %s -> %s departing after %s\n\n", from.c_str(),
              to.c_str(), Clock(start).c_str());

  // Direct connections.
  std::printf("direct:\n");
  auto direct = engine.Query("route1(" + from + ", " + to + ", " +
                             std::to_string(start) + ", R)");
  Fatal(direct.status(), "query");
  int shown = 0;
  while (shown < 5) {
    auto more = (*direct)->Next();
    Fatal(more.status(), "solve");
    if (!*more) break;
    std::printf("  %s\n", (*direct)->Binding("R").c_str());
    ++shown;
  }
  if (shown == 0) std::printf("  (none)\n");
  direct->reset();  // frees the engine's machine for the next query

  // One change.
  std::printf("\nwith one change:\n");
  auto change = engine.Query("route2(" + from + ", " + to + ", " +
                             std::to_string(start) + ", R)");
  Fatal(change.status(), "query");
  shown = 0;
  while (shown < 5) {
    auto more = (*change)->Next();
    Fatal(more.status(), "solve");
    if (!*more) break;
    std::printf("  %s\n", (*change)->Binding("R").c_str());
    ++shown;
  }
  if (shown == 0) std::printf("  (none)\n");
  change->reset();

  // A relational-style side query: which zone is the destination in?
  auto zone = engine.First("location2(" + to + ", Z)");
  if (zone.ok()) {
    std::printf("\n%s is in %s\n", to.c_str(), (*zone)["Z"].c_str());
  }

  const educe::EngineStats stats = engine.Stats();
  std::printf(
      "\n[engine: %llu instructions, %llu choice points, %llu pages read, "
      "%llu rule clauses decoded from the EDB]\n",
      static_cast<unsigned long long>(stats.machine.instructions),
      static_cast<unsigned long long>(stats.machine.choice_points),
      static_cast<unsigned long long>(stats.paged_file.pages_read),
      static_cast<unsigned long long>(stats.loader.clauses_decoded));
  return 0;
}

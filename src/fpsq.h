// Umbrella header: everything a typical application needs.
//
//   #include "fpsq.h"
//
//   fpsq::core::AccessScenario scenario;
//   fpsq::core::RttModel model{scenario, 80.0};
//   double ping_ms = model.rtt_quantile_ms(1e-5);
#pragma once

#include "core/dimensioning.h"
#include "core/mixed_population.h"
#include "core/multi_server.h"
#include "core/playability.h"
#include "core/rtt_model.h"
#include "core/scenario.h"
#include "core/validation.h"
#include "dist/dist.h"
#include "queueing/chernoff.h"
#include "queueing/convolution.h"
#include "queueing/erlang_mix.h"
#include "queueing/giek1.h"
#include "queueing/lindley.h"
#include "queueing/mg1.h"
#include "queueing/mg1_erlang_service.h"
#include "queueing/ndd1.h"
#include "queueing/position_delay.h"
#include "sim/gaming_scenario.h"
#include "sim/trace_replay.h"
#include "stats/autocorrelation.h"
#include "stats/empirical.h"
#include "stats/moments.h"
#include "trace/analyzer.h"
#include "trace/pcap.h"
#include "trace/trace_io.h"
#include "traffic/game_profiles.h"
#include "traffic/synthetic.h"

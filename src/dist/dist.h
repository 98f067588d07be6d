// Convenience umbrella header for the distribution library.
#pragma once

#include "dist/deterministic.h"
#include "dist/distribution.h"
#include "dist/erlang.h"
#include "dist/exponential.h"
#include "dist/extreme.h"
#include "dist/fitting.h"
#include "dist/gamma.h"
#include "dist/lognormal.h"
#include "dist/mixture.h"
#include "dist/normal.h"
#include "dist/rng.h"
#include "dist/uniform.h"

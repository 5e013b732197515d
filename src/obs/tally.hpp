// tally.hpp — the telemetry compile gate.
//
// Hot-path instrumentation goes through SMN_TALLY so a single CMake switch
// (-DSMN_DISABLE_OBS=ON, cmake/Obs.cmake) compiles every increment out of
// the step loop. The expression form means any plain-field bump — a
// per-object tally, a per-pass counter — vanishes entirely:
//
//   SMN_TALLY(++stats_.moves);
//   SMN_TALLY(stats_.pairs_tested += len);
//
// The tallied *fields* stay declared either way (readers compile in both
// configurations; they just read zeros when disabled), and anything that
// existing engine logic or tests depend on — the builder's
// replayed/rescanned unit counts, the pool's unit totals — is incremented
// unconditionally, NOT through this macro: SMN_DISABLE_OBS removes
// observation cost, never observable behavior.
#pragma once

#if defined(SMN_DISABLE_OBS)
#define SMN_OBS_ENABLED 0
#define SMN_TALLY(expr) ((void)0)
#else
#define SMN_OBS_ENABLED 1
#define SMN_TALLY(expr) ((void)(expr))
#endif

namespace smn::obs {

/// Compile-time telemetry switch, for code that prefers `if constexpr` /
/// runtime branching over the macro form.
inline constexpr bool kEnabled = SMN_OBS_ENABLED != 0;

}  // namespace smn::obs

"""Determinism pass: the replay story holds only if no code path consults
unseeded entropy, wall clocks that feed results, hash-order iteration, or
raw primitives outside their sanctioned module.

Absorbs and supersedes the former tools/lint_determinism.py:
  * tree-wide bans (det/random-device, det/system-clock, det/c-rand,
    det/assert) with the same patterns and the same wrapper allowlist;
  * det/std-distribution: `std::*_distribution` and the `std::mt19937`
    engines only inside the common/rng wrapper, so neither a per-item
    engine nor a library-defined distribution returns to a hot path;
  * scoped bans whose prefix has a stronger contract (det/obs-wallclock:
    sgnn::obs is logical-tick only; det/printf-format: sgnn::net and
    sgnn::obs write numbers through obs::AppendNumber, which reads no
    locale; det/par-raw-thread: sgnn::par must schedule through
    common::ThreadPool);
  * confined bans, the inverse: raw I/O only under src/storage/
    (det/raw-io), process/signal syscalls only under src/dist/
    (det/process-syscall), TCP socket/epoll syscalls only under src/net/
    (det/net-syscall).

New in sgnn-lint, for deterministic paths under src/:
  * det/unordered-iteration -- range-for over an `unordered_map`/
    `unordered_set` visits elements in hash-table order, which is a
    function of insertion history, libstdc++ version, and pointer values;
    results that feed RNG draws or output ordering silently diverge.
    Sort into a vector first.
  * det/pointer-keyed-order -- `map`/`set` keyed by a pointer orders by
    address, which ASLR re-rolls every run.
"""

import re

from . import registry

# Wrapper files allowed to touch the primitives they encapsulate.
ALLOWLIST = {
    "src/common/rng.h",
    "src/common/rng.cc",
    "src/common/timer.h",
    "src/common/timer.cc",
}

RULES = [
    registry.Rule(
        "det/random-device",
        "std::random_device is unseeded entropy; use common::Rng(seed) so "
        "runs replay",
        fixture="det-random-device.cc.fixture"),
    registry.Rule(
        "det/system-clock",
        "system_clock is wall time and feeds results; use common::WallTimer "
        "(steady) for reporting",
        fixture="det-system-clock.cc.fixture"),
    registry.Rule(
        "det/c-rand",
        "rand()/srand() is hidden-global-state C PRNG; use common::Rng",
        fixture="det-c-rand.cc.fixture"),
    registry.Rule(
        "det/std-distribution",
        "std::*_distribution outputs are left to the standard library, and "
        "a std::mt19937 engine per item costs more to seed than the draws "
        "it makes; both are confined to common/rng. Use common::Rng, or a "
        "common::KeyedStream with explicit integer arithmetic on hot paths",
        fixture="det-std-distribution.cc.fixture"),
    registry.Rule(
        "det/assert",
        "assert() compiles out under NDEBUG (the default Release build) and "
        "checks nothing; use SGNN_CHECK / SGNN_DCHECK",
        fixture="det-assert.cc.fixture"),
    registry.Rule(
        "det/obs-wallclock",
        "sgnn::obs promises byte-identical exports from logical ticks only; "
        "any clock -- even steady ones -- is forbidden there",
        fixture="det-obs-wallclock.cc.fixture",
        fixture_rel="src/obs/fixture.cc"),
    registry.Rule(
        "det/printf-format",
        "sgnn::net and sgnn::obs promise byte-stable answers and exports, "
        "but printf's %g and %f take their decimal point from LC_NUMERIC, "
        "so a setlocale call in an embedding program would change those "
        "bytes (std::to_string formats a double with %f, and a "
        "stringstream with the global locale); write numbers with "
        "obs::AppendNumber",
        fixture="det-printf-format.cc.fixture",
        fixture_rel="src/net/fixture.cc"),
    registry.Rule(
        "det/par-raw-thread",
        "sgnn::par promises bit-identical results for any worker count, "
        "which holds only when every thread comes from common::ThreadPool",
        fixture="det-par-raw-thread.cc.fixture",
        fixture_rel="src/par/fixture.cc"),
    registry.Rule(
        "det/raw-io",
        "raw file I/O (mmap, open, C stdio) is confined to src/storage/, "
        "where the resident-budget accounting lives; bytes read elsewhere "
        "escape the budget",
        fixture="det-raw-io.cc.fixture"),
    registry.Rule(
        "det/process-syscall",
        "process/socket/signal syscalls are confined to src/dist/: workers "
        "that escape the coordinator's spawn/reap bookkeeping break replayable "
        "kill schedules and bit-identity",
        fixture="det-process-syscall.cc.fixture"),
    registry.Rule(
        "det/net-syscall",
        "TCP socket and epoll syscalls are confined to src/net/, where the "
        "fault injector sees every accept/read and the front door's "
        "shutdown drain owns every fd; a socket opened elsewhere escapes "
        "both, so injected network faults no longer replay",
        fixture="det-net-syscall.cc.fixture"),
    registry.Rule(
        "det/simd-intrinsics",
        "vector intrinsics are confined to src/simd/, where each AVX2 "
        "kernel is paired with the bit-identical scalar fallback the "
        "SGNN_SIMD=off CI leg proves; an intrinsic elsewhere has no paired "
        "fallback and silently diverges on older CPUs",
        fixture="det-simd-intrinsics.cc.fixture"),
    registry.Rule(
        "det/unordered-iteration",
        "iterating an unordered container visits hash-table order -- a "
        "function of insertion history and library version; sort the "
        "elements into a vector before iterating in a deterministic path",
        fixture="det-unordered-iteration.cc.fixture"),
    registry.Rule(
        "det/pointer-keyed-order",
        "a map/set keyed by a pointer orders by address, which ASLR "
        "re-rolls every run; key by a stable id instead",
        fixture="det-pointer-keyed-order.cc.fixture"),
]

_R = {r.id: r for r in RULES}

# (rule, token-name, pattern) applied tree-wide to comment-stripped lines.
FORBIDDEN = [
    (_R["det/random-device"], "std::random_device",
     re.compile(r"std::random_device")),
    (_R["det/system-clock"], "system_clock",
     re.compile(r"system_clock")),
    (_R["det/c-rand"], "rand(",
     re.compile(r"(?<![_\w])s?rand\s*\(")),
    (_R["det/assert"], "assert(",
     re.compile(r"(?<![_\w])assert\s*\(")),
    (_R["det/std-distribution"], "std::*_distribution",
     re.compile(r"std::\w*_distribution\b")),
    (_R["det/std-distribution"], "std::mt19937",
     re.compile(r"std::mt19937")),
]

# Number formatting that reads the locale; banned where bytes are promised.
PRINTF_FORMAT = [
    (_R["det/printf-format"], "printf(",
     re.compile(r"(?<![_\w])v?(?:f|s|sn|as|d)?printf\s*\(")),
    (_R["det/printf-format"], "std::*stringstream",
     re.compile(r"std::\w*stringstream\b")),
    (_R["det/printf-format"], "std::to_string",
     re.compile(r"std::to_string\b")),
]

# Stricter rules for path prefixes whose contract is stronger.
SCOPED_FORBIDDEN = {
    "src/obs/": [
        (_R["det/obs-wallclock"], "std::chrono",
         re.compile(r"std::chrono|steady_clock|high_resolution_clock")),
        *PRINTF_FORMAT,
    ],
    "src/net/": PRINTF_FORMAT,
    "src/par/": [
        (_R["det/par-raw-thread"], "std::thread",
         re.compile(r"std::(thread|jthread|async)\b")),
    ],
}

# Rules that apply everywhere EXCEPT under the confining prefix.
CONFINED_FORBIDDEN = {
    "src/storage/": [
        (_R["det/raw-io"], "mmap(",
         re.compile(r"(?<![_\w])m(?:un)?map\s*\(")),
        (_R["det/raw-io"], "open(",
         re.compile(r"(?<![_\w.:>])open\s*\(")),
        (_R["det/raw-io"], "C stdio",
         re.compile(r"(?<![_\w])(?:fopen|fread|fwrite|pread|pwrite)\s*\(")),
    ],
    "src/dist/": [
        (_R["det/process-syscall"], "fork(",
         re.compile(r"(?<![_\w])(?:fork|vfork|socketpair|pipe2?)\s*\(")),
        (_R["det/process-syscall"], "kill(",
         re.compile(
             r"(?<![_\w])(?:kill|waitpid|signal|sigaction|_exit)\s*\(")),
    ],
    "src/simd/": [
        (_R["det/simd-intrinsics"], "immintrin.h",
         re.compile(r"#\s*include\s*<(?:imm|x86|avx|avx2|emm|xmm)intrin\.h>")),
        (_R["det/simd-intrinsics"], "_mm intrinsic",
         re.compile(r"(?<![_\w])_mm(?:\d+)?_\w+\s*\(")),
        (_R["det/simd-intrinsics"], "__m vector type",
         re.compile(r"(?<![_\w])__m(?:128|256|512)[id]?\b")),
    ],
    "src/net/": [
        (_R["det/net-syscall"], "socket(",
         re.compile(
             r"(?<![_\w])(?:socket|bind|listen|accept4?|connect"
             r"|setsockopt|getsockname|inet_pton)\s*\(")),
        (_R["det/net-syscall"], "recv(",
         re.compile(
             r"(?<![_\w])(?:recv(?:from|msg)?|send(?:to|msg)?"
             r"|epoll_create1?|epoll_ctl|epoll_p?wait)\s*\(")),
    ],
}

# Declares an unordered container variable (value, reference, or element of
# a wrapper like std::vector<std::unordered_set<...>> -- the captured name
# is whatever identifier follows the closing angle brackets).
UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set)\s*<[^;{}]*?>[>\s]*&?\s*(\w+)\s*[;,=({\[)]")

POINTER_KEY_RE = re.compile(
    r"(?<!unordered_)(?:\bstd::)?\b(?:map|set)\s*<[^<>;]*\*\s*[,>]")


def _line_rules(rel):
    rules = list(FORBIDDEN)
    for prefix, extra in SCOPED_FORBIDDEN.items():
        if rel.startswith(prefix):
            rules.extend(extra)
    for prefix, extra in CONFINED_FORBIDDEN.items():
        if not rel.startswith(prefix):
            rules.extend(extra)
    return rules


def check_file(sf, deterministic_path=None):
    """Lints one file. `deterministic_path` controls the src/-only rules
    (unordered iteration, pointer keys); by default it is derived from the
    file's path."""
    if sf.rel in ALLOWLIST:
        return []
    diags = []
    rules = _line_rules(sf.rel)
    for lineno, line in enumerate(sf.code_lines, start=1):
        for rule, token, pattern in rules:
            if pattern.search(line):
                diags.append(registry.Diagnostic(
                    sf.rel, lineno, rule, token,
                    sf.raw_line(lineno).strip()))
    if deterministic_path is None:
        deterministic_path = sf.rel.startswith("src/")
    if deterministic_path:
        diags.extend(_check_unordered(sf))
        diags.extend(_check_pointer_keys(sf))
    return diags


def _check_unordered(sf):
    diags = []
    names = set(UNORDERED_DECL_RE.findall(sf.code))
    if not names:
        return diags
    pattern = re.compile(
        r"for\s*\([^;()]*:\s*&?(" + "|".join(map(re.escape, sorted(names)))
        + r")\b")
    for lineno, line in enumerate(sf.code_lines, start=1):
        m = pattern.search(line)
        if m:
            diags.append(registry.Diagnostic(
                sf.rel, lineno, _R["det/unordered-iteration"],
                f"for (... : {m.group(1)})", sf.raw_line(lineno).strip()))
    return diags


def _check_pointer_keys(sf):
    diags = []
    for lineno, line in enumerate(sf.code_lines, start=1):
        m = POINTER_KEY_RE.search(line)
        if m:
            diags.append(registry.Diagnostic(
                sf.rel, lineno, _R["det/pointer-keyed-order"],
                m.group(0).strip(), sf.raw_line(lineno).strip()))
    return diags


def run(files):
    diags = []
    for sf in files:
        diags.extend(check_file(sf))
    return diags

"""Fixture self-test: a lint that stops seeing its fixtures has rotted.

For every registered rule there is a negative fixture under
tools/lint_fixtures/; the self-test proves (a) the rule fires on its
fixture when linted under the rule's pretend path, (b) the shared clean
file fires nothing under any pass, and (c) the suppression syntax both
silences a well-formed allow() and is itself policed (malformed or
unknown-rule suppressions fire meta/bad-suppression).
"""

import pathlib

from . import config
from . import pass_det
from . import pass_layering
from . import registry
from . import scanner

FIXTURE_DIR = "tools/lint_fixtures"
CLEAN_FIXTURE = "clean.cc.fixture"
SUPPRESSED_FIXTURE = "suppressed.cc.fixture"

# Rules whose fixture must ALSO be clean when linted under a different
# path: confined rules are legal inside their prefix, scoped rules outside
# theirs, and the billing rule outside the kernel directories.
COUNTER_PATHS = {
    "det/raw-io": "src/storage/fixture.cc",
    "det/process-syscall": "src/dist/fixture.cc",
    "det/net-syscall": "src/net/fixture.cc",
    "det/simd-intrinsics": "src/simd/fixture.cc",
    "det/std-distribution": "src/common/rng.cc",
    "det/obs-wallclock": "src/graph/fixture.cc",
    "det/printf-format": "src/graph/fixture.cc",
    "det/par-raw-thread": "src/graph/fixture.cc",
    "billing/unbilled-kernel-loop": "src/models/fixture.cc",
}


def _load_fixture(root, name):
    path = root / FIXTURE_DIR / name
    if not path.is_file():
        return None
    return path.read_text(encoding="utf-8", errors="replace")


def _lint_as(root, reg, text, rel):
    """Runs every pass over a single in-memory file pretending to live at
    `rel`, suppressions applied. Layer config is the real one."""
    from . import cli  # late import to avoid a module cycle
    sf = scanner.SourceFile(rel, text)
    layer_cfg = config.load(root / "tools" / "sgnn_lint" / "layers.toml")
    diags = []
    for name, (mod, accepts) in cli.PASSES.items():
        if not accepts(rel):
            continue
        if name == "layering":
            diags.extend(mod.check_file(sf, layer_cfg))
        elif name == "status":
            diags.extend(mod.check_file(sf, mod.harvest([sf])))
        elif name == "det":
            diags.extend(mod.check_file(sf))
        elif name == "billing":
            diags.extend(mod.check_file(sf))
        else:
            diags.extend(mod.check_file(sf))
    return registry.apply_suppressions(reg, {rel: sf}, diags)


def run(root, reg):
    root = pathlib.Path(root)
    failures = []
    checked = 0

    for rule in reg.all():
        if rule.fixture is None:
            failures.append(f"{rule.id}: no fixture declared")
            continue
        text = _load_fixture(root, rule.fixture)
        if text is None:
            failures.append(
                f"{rule.id}: fixture missing: {FIXTURE_DIR}/{rule.fixture}")
            continue
        checked += 1
        if rule.id == "layering/cycle":
            # The fixture is a layers.toml with a declared cycle.
            cfg = config.load(root / FIXTURE_DIR / rule.fixture)
            diags = pass_layering.check_config(cfg)
        elif rule.id == "meta/bad-suppression":
            sf = scanner.SourceFile(rule.fixture_rel, text)
            diags = registry.apply_suppressions(
                reg, {rule.fixture_rel: sf}, [])
        else:
            diags = _lint_as(root, reg, text, rule.fixture_rel)
        if not any(d.rule.id == rule.id for d in diags):
            failures.append(
                f"{rule.id}: fixture {rule.fixture} did not trip the rule "
                f"(linted as {rule.fixture_rel})")
        counter_rel = COUNTER_PATHS.get(rule.id)
        if counter_rel is not None:
            counter = [d for d in _lint_as(root, reg, text, counter_rel)
                       if d.rule.id == rule.id]
            if counter:
                failures.append(
                    f"{rule.id}: fixture {rule.fixture} tripped under "
                    f"{counter_rel}, where the rule must not apply")

    clean = _load_fixture(root, CLEAN_FIXTURE)
    if clean is None:
        failures.append(f"clean fixture missing: {FIXTURE_DIR}/{CLEAN_FIXTURE}")
    else:
        for rel in ("src/graph/clean.cc", "src/storage/clean.cc",
                    "src/obs/clean.cc", "tests/clean.cc"):
            diags = _lint_as(root, reg, clean, rel)
            if diags:
                failures.append(
                    f"clean fixture fired under {rel}: "
                    + "; ".join(f"{d.rule.id}@{d.line}" for d in diags))

    suppressed = _load_fixture(root, SUPPRESSED_FIXTURE)
    if suppressed is None:
        failures.append(
            f"suppressed fixture missing: {FIXTURE_DIR}/{SUPPRESSED_FIXTURE}")
    else:
        # Unsuppressed, the fixture must trip; with its allow() comments
        # honoured it must be silent -- proving both halves of the syntax.
        sf = scanner.SourceFile("src/graph/suppressed.cc", suppressed)
        raw = pass_det.check_file(sf)
        if not raw:
            failures.append("suppressed fixture has no underlying findings")
        diags = _lint_as(root, reg, suppressed, "src/graph/suppressed.cc")
        if diags:
            failures.append(
                "suppressed fixture still fired after suppression: "
                + "; ".join(f"{d.rule.id}@{d.line}" for d in diags))

    if failures:
        for f in failures:
            print(f"self-test FAILED: {f}")
        return 1
    print(f"self-test OK: {checked} rule fixture(s) tripped their rules; "
          f"clean + suppression fixtures verified")
    return 0

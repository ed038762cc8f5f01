"""Documentation consistency: the docs must reference real artifacts.

DESIGN.md's experiment index, README's benchmark table and EXPERIMENTS.md
all name bench targets; these tests keep them honest against the actual
files, and verify every benchmark file is documented somewhere.
"""

from __future__ import annotations

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent
BENCH_DIR = ROOT / "benchmarks"


def _bench_names_on_disk() -> set[str]:
    return {p.stem for p in BENCH_DIR.glob("bench_*.py")}


def _referenced_benches(text: str) -> set[str]:
    names = set(re.findall(r"bench_[a-z0-9_]+", text))
    return names - {"bench_output"}  # the captured-output file, not a bench


class TestDocsReferenceRealBenches:
    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_no_phantom_bench_references(self, doc):
        text = (ROOT / doc).read_text()
        on_disk = _bench_names_on_disk()
        for name in _referenced_benches(text):
            # Strip trailing artifacts of markdown (e.g. bench_x.py).
            stem = name.removesuffix("_py")
            assert stem in on_disk, f"{doc} references missing {name}"

    def test_every_bench_documented_in_readme(self):
        text = (ROOT / "README.md").read_text()
        documented = _referenced_benches(text)
        for stem in _bench_names_on_disk():
            assert stem in documented, f"{stem} missing from README benchmark table"

    def test_every_bench_in_design_index(self):
        text = (ROOT / "DESIGN.md").read_text()
        documented = _referenced_benches(text)
        for stem in _bench_names_on_disk():
            assert stem in documented, f"{stem} missing from DESIGN.md"


class TestExamplesListedInReadme:
    def test_every_example_listed(self):
        text = (ROOT / "README.md").read_text()
        for example in (ROOT / "examples").glob("*.py"):
            assert example.name in text, f"{example.name} missing from README"


class TestObservabilityDocumented:
    """README/TUTORIAL must document the tracing flags the CLI exposes."""

    @pytest.mark.parametrize("doc", ["README.md", "docs/TUTORIAL.md"])
    def test_docs_mention_trace_flag_and_report(self, doc):
        text = (ROOT / doc).read_text()
        for needle in ("--trace", "obs-report", "repro.obs"):
            assert needle in text, f"{doc} does not document {needle}"

    def test_every_experiment_subcommand_accepts_trace_and_quick(self):
        from repro.cli import _COMMANDS, build_parser

        parser = build_parser()
        for name in list(_COMMANDS) + ["all"]:
            args = parser.parse_args([name])
            assert hasattr(args, "trace"), f"{name} lacks --trace"
            assert hasattr(args, "quick"), f"{name} lacks --quick"

    def test_obs_report_subcommand_exists(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["obs-report", "some.jsonl"])
        assert args.experiment == "obs-report"
        assert args.trace == "some.jsonl"
        assert args.diff is None


class TestDaemonDocumented:
    """The always-on daemon and its load generator must stay documented."""

    @pytest.mark.parametrize("doc", ["README.md", "docs/TUTORIAL.md", "DESIGN.md"])
    def test_docs_cover_daemon_and_loadgen(self, doc):
        text = (ROOT / doc).read_text()
        for needle in ("SchedulingDaemon", "MicroBatcher", "loadgen",
                       "serve --smoke", "bench_service_daemon"):
            assert needle in text, f"{doc} does not document {needle}"

    def test_serve_subcommand_exists(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--smoke"])
        assert args.experiment == "serve"
        assert args.smoke is True
        assert args.queue_capacity == 256
        assert hasattr(args, "trace") and hasattr(args, "workers")


class TestArenaDocumented:
    """The scheduler arena must stay documented wherever schedulers are."""

    @pytest.mark.parametrize("doc", ["README.md", "docs/TUTORIAL.md", "DESIGN.md"])
    def test_docs_cover_arena(self, doc):
        text = (ROOT / doc).read_text()
        for needle in ("repro.arena", "bench_arena_regret", "verifier",
                       "exhaustive oracle"):
            assert needle in text, f"{doc} does not document {needle}"

    @pytest.mark.parametrize("doc", ["README.md", "docs/TUTORIAL.md"])
    def test_walkthrough_covers_every_action(self, doc):
        text = (ROOT / doc).read_text()
        for needle in ("arena generate", "arena score", "arena verify",
                       "arena report", "arena --smoke"):
            assert needle in text, f"{doc} does not document {needle}"

    def test_design_states_verifier_independence(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "Independence is the design" in text
        assert "repro.arena.instance/v1" in text

    def test_arena_subcommand_exists(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["arena", "--smoke"])
        assert args.experiment == "arena"
        assert args.smoke is True
        assert hasattr(args, "trace") and hasattr(args, "quick")


class TestSoloVectorDocumented:
    """The one decision core: solo ``schedule()`` is a batch of one."""

    @pytest.mark.parametrize("doc", ["README.md", "docs/TUTORIAL.md", "DESIGN.md"])
    def test_docs_cover_vectorised_solo_decision(self, doc):
        text = (ROOT / doc).read_text()
        for needle in ("batch of one", "repro.core.sweep",
                       "bench_solo_decision"):
            assert needle in text, f"{doc} does not document {needle}"

    def test_readme_names_the_counters_and_suite(self):
        text = (ROOT / "README.md").read_text()
        for needle in ("service.solo_vectorised", "service.solo_scalar",
                       "test_solo_vector_equivalence"):
            assert needle in text, f"README does not document {needle}"

    def test_gate_flags_exist(self):
        """``REPRO_NO_FASTPATH`` is the one decision gate; the retired
        solo-only switch must not come back."""
        from repro.util import perf

        assert hasattr(perf, "fastpath")
        assert not any(name.startswith("solo_") for name in dir(perf))
        assert not any("solo" in name for name in perf.__all__)


class TestReserveDocumented:
    """The reservation layer must stay documented wherever it is used."""

    @pytest.mark.parametrize("doc", ["README.md", "docs/TUTORIAL.md", "DESIGN.md"])
    def test_docs_cover_the_reservation_layer(self, doc):
        text = (ROOT / doc).read_text()
        for needle in ("ReservationRequest", "ReservationLedger",
                       "repro.reserve", "reserve --smoke",
                       "bench_request_repair"):
            assert needle in text, f"{doc} does not document {needle}"

    @pytest.mark.parametrize("doc", ["README.md", "docs/TUTORIAL.md"])
    def test_walkthrough_covers_every_action(self, doc):
        text = (ROOT / doc).read_text()
        for needle in ("reserve submit", "reserve plan", "reserve repair",
                       "reserve report"):
            assert needle in text, f"{doc} does not document {needle}"

    def test_design_names_the_repair_ladder(self):
        text = (ROOT / "DESIGN.md").read_text()
        for needle in ("shift-within-window", "shrink-toward-min",
                       "re-expand", "bump-by-priority"):
            assert needle in text, f"DESIGN.md does not name {needle}"

    def test_reserve_subcommand_exists(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["reserve", "--smoke"])
        assert args.experiment == "reserve"
        assert args.smoke is True
        assert hasattr(args, "pool") and hasattr(args, "invalidate")


class TestModulesReferencedExist:
    @pytest.mark.parametrize("doc", ["DESIGN.md", "docs/PAPER_MAP.md"])
    def test_repro_module_paths_resolve(self, doc):
        import importlib

        text = (ROOT / doc).read_text()
        modules = set(re.findall(r"`(repro(?:\.[a-z_0-9]+)+)`", text))
        assert modules, f"no module references found in {doc}?"
        for dotted in sorted(modules):
            parts = dotted.split(".")
            # Try importing the longest importable prefix; the tail may be
            # an attribute (class/function).
            for cut in range(len(parts), 0, -1):
                try:
                    mod = importlib.import_module(".".join(parts[:cut]))
                    break
                except ImportError:
                    continue
            else:
                pytest.fail(f"{doc}: cannot import any prefix of {dotted}")
            for attr in parts[cut:]:
                assert hasattr(mod, attr), f"{doc}: {dotted} has no {attr}"
                mod = getattr(mod, attr)

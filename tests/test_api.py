"""The public API: `vrfplan.__all__` is exactly what `__init__` imports,
the exact checks live in `vrfplan.oracle` alone, and no library module
imports the command line."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import vrfplan
import vrfplan.cli
import vrfplan.oracle

#: Names that left the public API: chain-reduction tools only the test
#: oracles use (now in tests/chain_reduction.py), a sampler only tests
#: called, a copy of the switching rules, the lowest-rate unit count
#: the rate set's grid limit replaced, the per-level distribution the
#: rates now read straight from the log coefficients, the traffic
#: builder whose lambda `RruChainSpec.lam` now derives from the rate set,
#: the cluster-chain pair classifier whose rates the generator's move
#: walk now reads off each move, a state count that answered no
#: planning question, and a Poisson pmf only an acceptance check read.
REMOVED = (
    "Partition", "uniformize", "stochastic_complement", "fold_back_conditional",
    "dtmc_steady_state", "sample_interarrival", "rate_after_arrival",
    "rate_after_departure", "max_rru", "PartitionDistribution", "partition_distribution",
    "traffic_from_load", "transition_rate", "count_states", "reconfig_arrival_probability",
)
#: The enumerated cluster model: the oracle of the load-grid solve, which
#: `vrfplan validate` and the tests reach through `vrfplan.aggregator`.
ORACLE_ONLY = ("StateSpace", "enumerate_states", "product_form")
#: The unit's full chain, the cluster's dense chain, their solver and the
#: per-level view that only `vrfplan validate` and the tests use, reached
#: through their modules.
UNIT_ORACLES = {
    "rru": ("partition_coefficients",),
    "oracle": ("GlobalRruChain", "build_global_chain", "steady_state", "run_suites",
               "build_generator", "detailed_balance_check"),
}


def _imported_names():
    tree = ast.parse(Path(vrfplan.__file__).read_text(encoding="utf-8"))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def test_all_is_sorted_and_resolves():
    assert vrfplan.__all__ == sorted(vrfplan.__all__)
    assert len(set(vrfplan.__all__)) == len(vrfplan.__all__)
    for name in vrfplan.__all__:
        assert getattr(vrfplan, name) is not None, name


def test_all_equals_the_imported_names():
    assert set(vrfplan.__all__) == _imported_names()


def test_removed_names_stay_removed():
    for name in REMOVED:
        assert not hasattr(vrfplan, name), name
        for module in (vrfplan.aggregator, vrfplan.config, vrfplan.oracle, vrfplan.rru,
                       vrfplan.sim):
            assert not hasattr(module, name), (module.__name__, name)


def test_oracle_names_stay_in_the_aggregator_only():
    for name in ORACLE_ONLY:
        assert name not in vrfplan.__all__ and not hasattr(vrfplan, name), name
        assert hasattr(vrfplan.aggregator, name), name


def test_unit_oracles_stay_in_their_modules():
    for module, names in UNIT_ORACLES.items():
        for name in names:
            assert name not in vrfplan.__all__ and not hasattr(vrfplan, name), name
            assert hasattr(getattr(vrfplan, module), name), (module, name)


def test_oracle_is_the_only_home_of_the_exact_checks():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("vrfplan.ctmc")
    for name in ("GlobalRruChain", "build_global_chain", "_oracle_log_coefficients",
                 "rate_level_distribution"):
        assert not hasattr(vrfplan.rru, name), name
    for name in ("_TABLE_CAPACITIES", "_random_chain_spec", "_suite_coefficients",
                 "_suite_product_form", "_suite_sim_agreement"):
        assert not hasattr(vrfplan.cli, name), name


def test_the_dense_cluster_chain_lives_in_the_oracle_alone():
    # the dense chain, its state cap and the balance check on it are exact
    # checks, not the planning path; a state space is indexed by its vectors
    for name in ("build_generator", "detailed_balance_check", "_upward_moves",
                 "_GENERATOR_STATE_CAP"):
        assert not hasattr(vrfplan.aggregator, name), name
    assert not hasattr(vrfplan.aggregator.StateSpace, "index_of")


def _imported_modules(path):
    """Every module `path` imports, and every name it imports from one;
    relative imports keep their leading dots."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            sep = "." if node.module else ""
            found.add(base)
            found.update(base + sep + alias.name for alias in node.names)
    return found


def test_only_the_cli_imports_the_cli():
    # the library sits below its front end: config, rru, aggregator and
    # sim, then oracle, then cli
    package = Path(vrfplan.__file__).parent
    importers = [p.name for p in sorted(package.glob("*.py"))
                 if p.name != "cli.py" and _imported_modules(p) & {"vrfplan.cli", ".cli"}]
    assert importers == []


def test_the_cli_keeps_no_copy_of_the_simulation_rules():
    for name in ("_agree_flag", "_coordinate_seed", "AGREE_SIGMA", "AGREE_FLOOR"):
        assert not hasattr(vrfplan.cli, name), name
    assert not hasattr(vrfplan.sim.ArrivalProcess, "mean_interarrival")


def test_benchmark_trace_targets_resolve():
    # the benchmark's tracer wraps these by name; a name that moves or
    # goes fails here, not in a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    for module, attribute, _, _ in layertrace.WRAPPED:
        assert callable(getattr(module, attribute, None)), (module.__name__, attribute)
    for cls in layertrace.CONFIG_CLASSES:
        assert "__post_init__" in vars(cls), cls.__name__


def _unused_imports(path):
    """Names `path` imports and never reads. A read in an annotation counts:
    annotations are parsed though never evaluated."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


#: The package's modules and the test modules.
MODULES = sorted(p for p in [*Path(vrfplan.__file__).parent.glob("*.py"),
                             *Path(__file__).parent.glob("*.py")] if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_import_only_what_they_use(path):
    assert _unused_imports(path) == []

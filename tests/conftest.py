"""Shared fixtures: the five worked-example parameter sets and their plans."""

import json
from pathlib import Path

import pytest

import coded_pir as cp

PENTAGON_SETS = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
PENTAGON_TRIPLES = ((0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4))


def prototype_params(seed=7, desired=(0,)):
    return cp.SchemeParams(
        variant="prototype", n_servers=4, code_dim=2, n_files=3,
        desired=desired, collusion_size=2, seed=seed,
    )


def robust_params(seed=7, desired=(0,)):
    return cp.SchemeParams(
        variant="robust", n_servers=6, code_dim=2, n_files=2,
        desired=desired, collusion_size=2, s_robust=1, seed=seed,
    )


def byzantine_params(seed=7, desired=(0,)):
    return cp.SchemeParams(
        variant="byzantine", n_servers=8, code_dim=2, n_files=2,
        desired=desired, collusion_size=2, b_byzantine=1, seed=seed,
    )


def multifile_params(seed=7, desired=(0, 1)):
    return cp.SchemeParams(
        variant="multifile", n_servers=4, code_dim=2, n_files=3,
        desired=desired, collusion_size=2, seed=seed,
    )


def pattern_params(seed=7, desired=(0,)):
    return cp.SchemeParams(
        variant="pattern", n_servers=5, code_dim=3, n_files=2,
        desired=desired,
        pattern=cp.CollusionPattern(PENTAGON_SETS),
        family=cp.BlockFamily(PENTAGON_TRIPLES, 3),
        seed=seed,
    )


# The five worked examples by name, as the pin tables key them.
FACTORIES = {
    "prototype": prototype_params,
    "robust": robust_params,
    "byzantine": byzantine_params,
    "multifile": multifile_params,
    "pattern": pattern_params,
}


def cli_argv(command, params, workdir):
    """``command`` arguments that rebuild ``params`` from the command line.

    A pattern and its family are written as JSON files into ``workdir``.
    """
    argv = [
        command, "--variant", params.variant.value, "--n", str(params.n_servers),
        "--k", str(params.code_dim), "--m", str(params.n_files),
        "--desired", ",".join(str(f) for f in params.desired),
        "--seed", str(params.seed),
    ]
    if params.collusion_size:
        argv += ["--t", str(params.collusion_size)]
    if params.s_robust:
        argv += ["--s", str(params.s_robust)]
    if params.b_byzantine:
        argv += ["--b", str(params.b_byzantine)]
    if params.pattern is not None:
        pattern_file = Path(workdir) / "pattern.json"
        family_file = Path(workdir) / "family.json"
        pattern_file.write_text(json.dumps([list(s) for s in params.pattern.maximal_sets]))
        family_file.write_text(json.dumps([list(s) for s in params.family.blocks]))
        argv += ["--pattern", str(pattern_file), "--family", str(family_file)]
    return argv


@pytest.fixture(scope="session")
def proto_plan():
    return cp.build_plan(prototype_params())


@pytest.fixture(scope="session")
def robust_plan():
    return cp.build_plan(robust_params())


@pytest.fixture(scope="session")
def byz_plan():
    return cp.build_plan(byzantine_params())


@pytest.fixture(scope="session")
def multi_plan():
    return cp.build_plan(multifile_params())


@pytest.fixture(scope="session")
def pattern_plan():
    return cp.build_plan(pattern_params())

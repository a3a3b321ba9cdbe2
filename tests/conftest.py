"""Shared fixtures: demo pipelines built once per session."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import pytest

from sheafgauge import (
    GroupModel,
    PrincipalConnection,
    PrincipalSheafData,
    RepresentationModel,
    SampledCover,
    Scenario,
    arc_range,
    build_cover,
    build_group,
    build_principal,
    build_representation,
    build_seed,
    circle_cover,
    complete_connection,
    induce_connection,
    load_demo,
    push_cocycle,
)

DEMO_NAMES = ("mobius", "so2", "shear-frame")


@dataclass(frozen=True)
class Pipeline:
    scn: Scenario
    cover: SampledCover
    group: GroupModel
    P: PrincipalSheafData
    R: RepresentationModel
    E: PrincipalSheafData
    D: PrincipalConnection
    nab: PrincipalConnection


@lru_cache(maxsize=None)
def demo_pipeline(name: str) -> Pipeline:
    scn = load_demo(name)
    cover = build_cover(scn)
    group = build_group(scn)
    P = build_principal(scn, cover, group)
    R = build_representation(scn, group)
    E = push_cocycle(P, R)
    D = complete_connection(P, build_seed(scn, cover, group))
    nab = induce_connection(P, R, D)
    return Pipeline(scn, cover, group, P, R, E, D, nab)


@pytest.fixture(params=DEMO_NAMES)
def pipeline(request) -> Pipeline:
    return demo_pipeline(request.param)


@pytest.fixture
def so2_pipe() -> Pipeline:
    return demo_pipeline("so2")


@pytest.fixture
def mobius_pipe() -> Pipeline:
    return demo_pipeline("mobius")


@pytest.fixture
def shear_pipe() -> Pipeline:
    return demo_pipeline("shear-frame")


@lru_cache(maxsize=None)
def two_arc_cover_12() -> SampledCover:
    """12-point circle covered by two half arcs overlapping in two 2-point arcs."""
    return circle_cover(12, {"alpha": arc_range(0, 7, 12),
                             "beta": arc_range(6, 1, 12)})


@pytest.fixture
def cover12() -> SampledCover:
    return two_arc_cover_12()


def trivial_principal(cover: SampledCover, model: GroupModel) -> PrincipalSheafData:
    """Identity cocycle over every overlap, extensions everywhere."""
    entries = {}
    ext = {}
    ids = cover.region_ids()
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if not cover.overlap_points(a, b):
                continue
            entries[(a, b)] = model.unit_field(
                a, cover.overlap_points(a, b), cover.dim(a))
            ext[(a, b)] = model.unit_field(a, cover.points, cover.dim(a))
    return PrincipalSheafData.from_pairs(cover, model, entries, ext)

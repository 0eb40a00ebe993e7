"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value is either taken verbatim from the worked examples, or
computed by an independent oracle inside the test.  Tolerances are exact
(boolean/integer) throughout.

Criterion 3 expects safe knowledge (``Ksafe[a] P := E[a] [] P``) to fail
scheme B and to satisfy scheme 4, as the satisfaction clauses force.  Two
witnesses outside the sweep back this: ``corpus/ksafe_4.deriv`` derives the
4 scheme in the proof kernel, and ``test_search.py`` pins the minimal B
countermodel, a world where the agent is absent and PHI holds.
"""

import itertools
import random
from collections import defaultdict

import pytest

import hyperknow as hk
from hyperknow import frames, kb4, parser, proofkernel, search
from hyperknow.core import downward_closure, underlying_simple
from hyperknow.errors import DerivationCheckError, ParseError, SortError
from hyperknow.frames import eta, is_isomorphic, is_isomorphic_frames, kappa
from hyperknow.kb4 import KB4Evaluator, translate
from hyperknow.neighborhood import (
    GeneralizedEvaluator,
    from_functional,
    shared_memory_example,
    to_neighborhood,
)
from hyperknow.semantics import Evaluator
from hyperknow.syntax import atoms_of, desugar, fold, substitute_metas

from conftest import CORPUS, random_agent, random_world


def _report(n, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"criterion {n} ({label}): {status}{suffix}")


def test_criterion_1_worked_examples_h1_h2_h3():
    h1, h2, h3 = hk.example("h1"), hk.example("h2"), hk.example("h3")
    checks = []
    for text, expected in [("alive(a)", True), ("alive(b)", True), ("alive(c)", False)]:
        got = hk.sat_world(h1, "e_ab", hk.parse_world(text, h1.sig))
        checks.append(got == expected)
    checks.append(hk.sat_agent(h1, "a", "va",
                               hk.parse_agent("~[] alive(b)", "a", h1.sig)))
    checks.append(hk.sat_agent(h2, "a", "va",
                               hk.parse_agent("[](alive(b) & alive(c))", "a", h2.sig)))
    checks.append(hk.sat_agent(
        h3, "a", "va",
        hk.parse_agent("[](alive(b) | alive(c)) & ~[]alive(b) & ~[]alive(c)",
                       "a", h3.sig)))
    ok = all(checks)
    _report(1, "three-hypergraph worked examples", ok)
    assert ok, checks


def test_criterion_2_binary_input_examples():
    m = hk.example("binary-input")
    cases = ["0a", "~[] E[b] true", "<> E[b] 1b",
             "[](~solo -> E[b](0b | 1b))", "[] A[b](0b | 1b)"]
    results = {text: hk.sat_agent(m, "a", "a0", hk.parse_agent(text, "a", m.sig))
               for text in cases}
    ok = all(results.values())
    _report(2, "binary-input worked examples", ok)
    assert ok, results


def test_criterion_3_scheme_sweep_as_stated():
    b = search.Bounds(agents=2, views=2, edges=4, agent_atoms=2, env_atoms=2, depth=2)
    verdicts = {}
    verdicts["ax_surjectivity"] = search.check_scheme(
        search.scheme_surjectivity("a"), b, agent="a")
    verdicts["ax_functionality"] = search.check_scheme(
        search.scheme_functionality("a"), b, agent="a")
    verdicts["ax_non_emptiness"] = search.check_scheme(
        search.scheme_non_emptiness(("a", "b")), b)
    for k, scheme in search.interaction_schemes("a").items():
        agent = None if isinstance(scheme, hk.WorldFormula) else "a"
        verdicts[f"interaction_{k}"] = search.check_scheme(scheme, b, agent=agent)
    verdicts["locality"] = search.check_scheme(search.locality_scheme("a"), b, agent="a")
    for name, scheme in search.knowledge_schemes("a").items():
        verdicts[name] = search.check_scheme(scheme, b)

    expected_valid = [
        "ax_surjectivity", "ax_functionality", "ax_non_emptiness",
        "interaction_1", "interaction_2", "interaction_3", "interaction_4", "interaction_5", "interaction_6",
        "locality",
        "kunsafe_k", "kunsafe_b", "kunsafe_4",
        "ksafe_k", "ksafe_t", "ksafe_4",
    ]
    expected_countermodel = ["ksafe_b", "ksafe_necessitation"]

    mismatches = []
    for name in expected_valid:
        if not isinstance(verdicts[name], search.ValidWithinBounds):
            mismatches.append(f"{name}: expected valid, got countermodel")
    for name in expected_countermodel:
        v = verdicts[name]
        if not isinstance(v, search.Countermodel):
            mismatches.append(f"{name}: expected countermodel, got valid")
        else:
            scheme = search.knowledge_schemes("a")[name]
            inst = desugar(substitute_metas(scheme, v.assignment))
            if Evaluator(v.model).sat(v.point, inst):
                mismatches.append(f"{name}: countermodel fails to re-evaluate false")

    for name, v in sorted(verdicts.items()):
        print(f"  {name:22s} {type(v).__name__}")
    ok = not mismatches
    _report(3, "axiom and scheme sweep at default bounds", ok,
            "; ".join(mismatches))
    assert ok, mismatches


def test_criterion_4_round_trips():
    b = search.Bounds(agents=2, views=2, edges=3)
    n_hyper = 0
    for h in search.enumerate_hypergraphs(b):
        assert is_isomorphic(eta(kappa(h)), h) is not None
        n_hyper += 1
    n_frames = 0
    for fr in search.enumerate_frames(("a", "b"), 3):
        assert is_isomorphic_frames(kappa(eta(fr)), fr) is not None
        n_frames += 1
    ok = n_hyper > 100 and n_frames > 50
    _report(4, "frame/hypergraph round trips", ok,
            f"{n_hyper} hypergraphs, {n_frames} frames")
    assert ok


def test_criterion_5_translation_equivalence():
    atoms = ("q1", "q2")
    pool = search.enumerate_kb4_formulas(atoms, ("a", "b"), max_size=5,
                                         max_modal_depth=2, commutative_dedup=True)
    # Pool formulas share subformula objects.  Translated with one memo,
    # their translations share them too, so each Evaluator below evaluates a
    # shared subformula once.  Each equals translate(f).
    memo = {}
    groups = defaultdict(list)
    for f in pool:
        tf = fold(f, None, kb4._translate_node, memo)
        assert tf == translate(f)
        groups[tuple(sorted(atoms_of(f)))].append((f, tf))

    checked = 0
    mismatches = 0
    for fr in search.enumerate_frames(("a", "b"), 3):
        h = eta(fr)
        sig = hk.Signature(fr.agents, {}, atoms)
        eta_hypergraph = hk.ChromaticHypergraph(
            sig=sig, views=h.views, edges=h.edges, proj=h.proj)
        n = len(fr.worlds)
        subsets = [frozenset(w for i, w in enumerate(fr.worlds) if mask >> i & 1)
                   for mask in range(1 << n)]
        for used, fs in groups.items():
            for choice in itertools.product(subsets, repeat=len(used)):
                val = {a: frozenset() for a in atoms}
                val.update(dict(zip(used, choice)))
                fm = frames.PartialEpistemicModel(frame=fr, atoms=atoms, val=val)
                em = hk.ChromaticHypergraphModel(
                    hypergraph=eta_hypergraph,
                    val_agent={a: {} for a in fr.agents}, val_env=val)
                direct = KB4Evaluator(fm)
                converted = Evaluator(em)
                for f, tf in fs:
                    for w in fr.worlds:
                        checked += 1
                        if direct.sat(w, f) != converted.sat_world(w, tf):
                            mismatches += 1
    ok = mismatches == 0 and checked > 1_000_000
    _report(5, "KB4 translation equivalence", ok,
            f"{checked} comparisons, {mismatches} mismatches, pool={len(pool)}")
    assert ok


def _corrupt(line):
    bad = (proofkernel.AxFunctionality()
           if isinstance(line.justification, proofkernel.PropTaut)
           else proofkernel.PropTaut())
    return proofkernel.DerivationLine(
        index=line.index, statement=line.statement, justification=bad,
        span=line.span)


def test_criterion_6_proof_kernel_corpus():
    paths = sorted(CORPUS.glob("*.deriv"))
    assert {"locality.deriv", "useful_formulas.deriv",
            "distribution.deriv"} <= {p.name for p in paths}
    corrupted_total = 0
    for path in paths:
        d = parser.parse_derivation(path.read_text())
        proofkernel.check_derivation(d)
        assert proofkernel.soundness_spotcheck(d) is None, path.name
        for k in range(1, len(d.lines) + 1):
            lines = list(d.lines)
            lines[k - 1] = _corrupt(lines[k - 1])
            bad = proofkernel.Derivation(sig=d.sig, lines=tuple(lines))
            with pytest.raises(DerivationCheckError) as err:
                proofkernel.check_derivation(bad)
            assert err.value.line == k, (path.name, k)
            corrupted_total += 1
    _report(6, "proof kernel corpus", True,
            f"{len(paths)} files, {corrupted_total} corruptions rejected")


def test_criterion_7_neighborhood_export():
    sm = shared_memory_example()
    nf = to_neighborhood(sm.hypergraph)
    exact = nf.n("a", "01") == frozenset({frozenset({"00", "01"}),
                                          frozenset({"01", "11"})})

    membership = True
    b = search.Bounds(agents=2, views=2, edges=2, agent_atoms=1, env_atoms=1)
    functional = list(search.enumerate_models(b))
    frames_pool = [nf]
    frames_pool += [to_neighborhood(from_functional(m).hypergraph)
                    for m in functional]
    for frame in frames_pool:
        for a in frame.neighborhoods:
            for s in frame.states:
                for hood in frame.n(a, s):
                    membership = membership and (s in hood)

    rng = random.Random(41)
    agree = True
    compared = 0
    for m in functional:
        gm = from_functional(m)
        gev = GeneralizedEvaluator(gm)
        ev = Evaluator(m)
        for _ in range(3):
            f = random_world(rng, m.sig, 3)
            for e in m.edges:
                compared += 1
                agree = agree and (gev.sat_world(e, f) == ev.sat_world(e, f))
        for agent in m.sig.agents:
            phi = random_agent(rng, m.sig, agent, 3)
            for v in m.views_of(agent):
                compared += 1
                agree = agree and (gev.sat_agent(agent, v, phi)
                                   == ev.sat_agent(agent, v, phi))
    ok = exact and membership and agree
    _report(7, "neighborhood export", ok, f"{compared} evaluator agreements")
    assert ok, (exact, membership, agree)


def test_criterion_8_card_game_structure():
    m = hk.example("card-game", cards=4, agents=3)
    views_total = sum(len(m.views_of(a)) for a in m.sig.agents)
    complex_ = downward_closure(underlying_simple(m.hypergraph))
    counts = complex_.face_counts()
    chi = complex_.euler_characteristic()
    ok = (views_total == 12 and len(m.edges) == 24
          and counts == {0: 12, 1: 36, 2: 24} and chi == 0)
    _report(8, "card-game structure", ok,
            f"{views_total} views, {len(m.edges)} deals, faces={counts}, chi={chi}")
    assert ok


def test_criterion_9_parser_round_trip():
    sig = hk.Signature(("a", "b"), {"a": ("pa", "qa"), "b": ("0b", "1b")},
                       ("p", "solo"))
    rng = random.Random(90125)
    n = 10_000
    for i in range(n // 2):
        f = random_world(rng, sig, 6)
        assert parser.parse_world(parser.render(f), sig) == f
    for i in range(n // 2):
        agent = rng.choice(sig.agents)
        f = random_agent(rng, sig, agent, 6)
        assert parser.parse_agent(parser.render(f), agent, sig) == f

    bad_inputs = ["p &", "", "~", "( p", "E[a", "E[z] true", "alive(",
                  "p @", "p & & q", "K[a]", "\"oops"]
    for text in bad_inputs:
        with pytest.raises((ParseError, SortError)) as err:
            parser.parse_world(text, sig)
        span = err.value.span
        assert span is not None
        assert 0 <= span.start <= span.end <= max(len(text), 1)
    _report(9, "parser round trip and error spans", True,
            f"{n} round trips, {len(bad_inputs)} error spans")

"""End-to-end certification reports and their serializations."""

import json

import numpy as np

from noninner.certify import certify_group
from noninner.maps import GroupMap, fixes_elementwise, map_order, verify_automorphism
from noninner.report import report_to_dict, report_to_json, report_to_text
from noninner.structure import closure

EXPECTED_KEY_ORDER = [
    "group_id",
    "p",
    "m",
    "order",
    "class",
    "coclass",
    "route",
    "citations",
    "context",
    "chosen",
    "images",
    "certificates",
    "timings",
]


def test_rejection_route_report(heis3):
    report = certify_group(heis3, group_id="heisenberg_3")
    assert report.route == "NOT_COCLASS_2"
    assert report.p == 3 and report.m == 3 and report.order == 27
    assert report.nilpotency_class == 2 and report.coclass == 1
    assert report.citations  # literature for the rejection
    assert report.context is None
    assert report.chosen is None
    assert report.images is None
    assert report.certificates is None
    assert set(report.timings) == {"route"}

    text = report_to_text(report)
    assert "route   NOT_COCLASS_2" in text
    assert "no certificate" in text

    data = report_to_dict(report)
    assert list(data) == EXPECTED_KEY_ORDER
    assert data["class"] == 2


def test_eligible_reports(eligible_reports):
    for gid, report in eligible_reports.items():
        assert report.group_id == gid
        assert report.route == "ELIGIBLE"
        assert report.citations == ()
        assert report.p == 3 and report.m == 7 and report.order == 2187
        assert report.nilpotency_class == 5 and report.coclass == 2
        assert report.chosen in {"a_shift", "b_shift"}
        assert len(report.images) == 7
        certs = report.certificates
        assert certs["is_automorphism"] is True
        assert certs["order"] == 3
        assert certs["noncentral"] is True
        assert certs["noninner"] is True
        assert certs["cocycle_verified"] is True
        assert certs["inner_search_size"] == 729  # |G| / |Z| = 3^7 / 3
        assert certs["fixed_subgroup"] in {"FRATTINI", "Z_M_MINUS_4"}
        if report.chosen == "b_shift":
            assert certs["b_shift_inner"] is False
            assert certs["a_shift_inner"] is None  # never needed
            assert certs["fixed_subgroup"] == "FRATTINI"
        else:
            assert certs["b_shift_inner"] is True
            assert certs["a_shift_inner"] is False
            assert certs["fixed_subgroup"] == "Z_M_MINUS_4"
        assert set(report.timings) == {
            "route",
            "selection",
            "derivations",
            "verify",
            "inner_search",
        }
        ctx = report.context
        assert set(ctx) == {"N_basis", "a", "b", "w", "comm_a_b", "comm_w_b"}


def test_report_json_round_trip(eligible_reports):
    report = next(iter(eligible_reports.values()))
    data = json.loads(report_to_json(report))
    assert list(data) == EXPECTED_KEY_ORDER
    assert data["route"] == "ELIGIBLE"
    assert data["certificates"]["noninner"] is True
    assert all(isinstance(v, (int, float)) for v in data["timings"].values())


def test_report_text_eligible(eligible_reports):
    gid, report = next(iter(eligible_reports.items()))
    text = report_to_text(report)
    assert f"group   {gid}" in text
    assert "order   3^7 = 2187" in text
    assert "class   5 (coclass 2)" in text
    assert "chosen  " + report.chosen in text
    assert "g7 ->" in text
    assert "noninner = True" in text


def test_certified_images_rebuild_the_automorphism(eligible_groups, eligible_reports):
    """The report's images are a standalone certificate: rebuilding the
    map from them alone must reproduce every certified property."""
    for gid, report in eligible_reports.items():
        G = eligible_groups[gid]
        f = GroupMap(G, [G.idx(tuple(im)) for im in report.images])
        assert verify_automorphism(f) is None
        assert closure(G, f.image_indices).order == G.element_count
        assert map_order(f) == 3
        from noninner.eligibility import select_generators
        from noninner.maps import find_conjugating_element, is_central_map

        assert not is_central_map(f)
        assert find_conjugating_element(f) is None  # exhaustive noninner check
        ctx = select_generators(G)
        fixed = ctx.phi if report.chosen == "b_shift" else ctx.z_deep
        assert fixes_elementwise(f, fixed)


def test_certify_accepts_presentation_or_group(heis3):
    from_group = certify_group(heis3, group_id="x")
    from_pres = certify_group(heis3.pres, group_id="x")
    d1, d2 = report_to_dict(from_group), report_to_dict(from_pres)
    d1.pop("timings"), d2.pop("timings")
    assert d1 == d2


def test_certify_is_deterministic(eligible_groups, eligible_reports):
    gid = sorted(eligible_reports)[0]
    again = certify_group(eligible_groups[gid], group_id=gid)
    d1 = report_to_dict(eligible_reports[gid])
    d2 = report_to_dict(again)
    d1.pop("timings"), d2.pop("timings")
    assert d1 == d2


def test_certify_collector_call_budget(corpus_dir, monkeypatch):
    """Certification works on index tables, maps and single elements
    included: from a presentation, the consistency check of
    `PcGroup(pres)` included, no tuple method of `PcGroup` is called.
    Subgroups, maps and the frame are indices, so few of them become
    tuples (`vec`).  Two centralizers are computed: C_G(Z(Phi)) for
    the route, and C_G(N) once in select_generators; the derivation
    builds take Z(N) as C_G(N) meet N.  One coset table is built, N's,
    which both derivations share, as they share the representatives'
    exponents (one decomposition) and the powers of w and [w,b] (two
    power lists); the upper central series folds one running table
    instead (`_fold_basis`).  The class comes from the upper central
    series, Phi from the relation words, and generation is tested
    modulo Phi, so the lower central series is never built and at most
    two closures run (Phi's, and Omega_1(Z_2) when Z_2 has exponent
    p^2; N's candidates are cosets of Z); only the chosen N is checked
    elementary abelian."""
    import sys

    import noninner.cocycles as cocycles
    import noninner.eligibility as eligibility
    import noninner.structure as structure
    from noninner.pcgroup import PcGroup
    from noninner.pcpfile import parse_pcp_file

    collector = ("mul", "inv", "pow", "conj", "comm")
    counted_functions = (
        "centralizer",
        "coset_min_table",
        "closure",
        "lower_central_series",
        "_is_elementary_abelian",
    )
    names = collector + ("vec", "exponents", "_powers") + counted_functions
    calls = dict.fromkeys(names, 0)
    original_vec = PcGroup.vec
    original_exponents, original_powers = cocycles._Decomposer.exponents, cocycles._powers
    originals = {
        name: getattr(eligibility if name.startswith("_") else structure, name)
        for name in counted_functions
    }

    def counted_collector(name):
        original = getattr(PcGroup, name)

        def counted(self, *args):
            calls[name] += 1
            return original(self, *args)

        return counted

    def counted_vec(self, n):
        calls["vec"] += 1
        return original_vec(self, n)

    def counted_exponents(self, idxs):
        calls["exponents"] += 1
        return original_exponents(self, idxs)

    def counted_powers(group, x):
        calls["_powers"] += 1
        return original_powers(group, x)

    def counting(name):
        def counted(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)

        return counted

    for name in collector:
        monkeypatch.setattr(PcGroup, name, counted_collector(name))
    monkeypatch.setattr(PcGroup, "vec", counted_vec)
    monkeypatch.setattr(cocycles._Decomposer, "exponents", counted_exponents)
    monkeypatch.setattr(cocycles, "_powers", counted_powers)
    for attr, original in originals.items():
        counted = counting(attr)
        for name, module in list(sys.modules.items()):
            if name.startswith("noninner") and getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, counted)
    for gid in ("g2187_a", "g2187_b", "g2187_c", "g2187_d"):
        pres = parse_pcp_file(corpus_dir / f"{gid}.pcp").presentation
        calls.update(dict.fromkeys(names, 0))
        report = certify_group(pres, group_id=gid)
        assert report.certificates is not None, gid
        assert not any(calls[name] for name in collector), (gid, calls)
        assert calls["vec"] <= 200, (gid, calls)
        assert calls["centralizer"] <= 2, (gid, calls)
        assert calls["coset_min_table"] == 1, (gid, calls)
        assert calls["exponents"] <= 1, (gid, calls)
        assert calls["_powers"] <= 2, (gid, calls)
        assert calls["lower_central_series"] == 0, (gid, calls)
        assert calls["closure"] <= 2, (gid, calls)
        assert calls["_is_elementary_abelian"] <= 1, (gid, calls)


def test_certify_makes_one_rank_call(corpus_dir, eligible_ids, monkeypatch):
    """Only the [a, b] generation test of `select_generators` takes an
    F_p rank; `verify_automorphism` reads bijectivity from each lift's
    table, so an ELIGIBLE certification makes one `fp.rank` call."""
    import noninner.fp as fp
    from noninner.pcpfile import parse_pcp_file

    shapes = []
    original = fp.rank

    def counted(mat, p):
        shapes.append(np.shape(mat))
        return original(mat, p)

    monkeypatch.setattr(fp, "rank", counted)
    for gid in eligible_ids:
        shapes.clear()
        report = certify_group(parse_pcp_file(corpus_dir / f"{gid}.pcp").presentation)
        assert report.certificates is not None, gid
        assert len(shapes) == 1, (gid, shapes)


def test_b_shift_is_chosen_when_it_has_no_conjugating_element(eligible_groups, monkeypatch):
    """On every ELIGIBLE corpus group `b_shift` is inner, so the
    certificate takes `a_shift`; told that `b_shift` has no conjugating
    element, the inner search stops there, and the certificate fixes Phi
    elementwise."""
    import noninner.certify as certify
    from noninner.structure import frattini

    searched = []

    def no_witness(f):
        searched.append(f)
        return None

    monkeypatch.setattr(certify, "find_conjugating_element", no_witness)
    for gid, G in eligible_groups.items():
        searched.clear()
        report = certify_group(G, group_id=gid)
        assert report.chosen == "b_shift", gid
        certs = report.certificates
        assert certs["fixed_subgroup"] == "FRATTINI", gid
        assert certs["b_shift_inner"] is False, gid
        assert certs["a_shift_inner"] is None, gid
        assert len(searched) == 1, gid
        f = GroupMap(G, [G.idx(tuple(im)) for im in report.images])
        phi = frattini(G).indices
        assert np.array_equal(f.apply_table()[phi], phi), gid


def test_group_is_freed_without_a_garbage_collection(corpus_dir):
    """The group's caches hold no reference back to the group, so its
    tables go as soon as the last reference does: after certification,
    after the route and diagnostics (whose rank path fills the Frattini
    coordinates), and after the lower central series, the conjugation
    columns and a tuple product."""
    import gc
    import weakref

    from noninner.eligibility import decide_route, diagnostics
    from noninner.maps import _conj_columns, _frattini_coords
    from noninner.pcgroup import PcGroup
    from noninner.pcpfile import parse_pcp_file
    from noninner.structure import lower_central_series

    def certify(group):
        assert certify_group(group, group_id="g2187_a").certificates is not None

    def route_and_diagnostics(group):
        decide_route(group)
        diagnostics(group)

    def product(group):
        group.mul((1,) * group.ngens, (2,) * group.ngens)

    # (group, what runs on it, a per-group memo that run must fill)
    uses = [
        ("g2187_a", certify, PcGroup.inv_table),
        ("heis_x_c3", route_and_diagnostics, _frattini_coords),
        ("g2187_a", lower_central_series, lower_central_series),
        ("g2187_a", _conj_columns, _conj_columns),
        ("g2187_a", product, PcGroup._index_steps),
    ]
    for gid, run, memo in uses:
        group = PcGroup(parse_pcp_file(corpus_dir / f"{gid}.pcp").presentation)
        run(group)
        assert memo.__wrapped__ in group._cache, (gid, run)
        ref = weakref.ref(group)
        gc.disable()
        try:
            del group
            assert ref() is None, (gid, run)
        finally:
            gc.enable()

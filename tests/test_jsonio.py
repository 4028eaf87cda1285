import json
from fractions import Fraction

import pytest

from ntcert import cli, family, scandoc
from ntcert.exact import UniPoly
from ntcert.exact.ellcurve import _exact_point
from ntcert.jsonio import dumps_canonical, poly_from_list, to_jsonable
from ntcert.scandoc import dumps_scan


def test_rational_serialization():
    assert to_jsonable(Fraction(3)) == "3"
    assert to_jsonable(Fraction(-157, 108)) == "-157/108"


def test_polynomial_round_trip():
    f = UniPoly((Fraction(-637, 5832), Fraction(-49, 108), 0, 1))
    encoded = to_jsonable(f)
    assert encoded == ["-637/5832", "-49/108", "0", "1"]
    assert poly_from_list(encoded) == f


def test_dumps_canonical_stable():
    doc = {"b": Fraction(1, 2), "a": [UniPoly((1, 1))], "nested": {"z": 1, "y": 2}}
    one = dumps_canonical(doc)
    two = dumps_canonical(dict(reversed(list(doc.items()))))
    assert one == two
    assert one.endswith("\n")
    parsed = json.loads(one)
    assert parsed["b"] == "1/2"


def test_unknown_type_rejected():
    with pytest.raises(TypeError):
        to_jsonable(object())


def certificate_dict(cert, earlier):
    """A scan certificate's JSON form as a dict, for json's own encoder; its
    witness j tells it apart from earlier[j]."""
    _, _, (x, y) = _exact_point(cert.curve, family._fiber_point(cert.curve, cert))
    return {
        "s": cert.s,
        "t": cert.t,
        "fiber": cert.fiber,
        "disc": cert.disc,
        "sqrt_disc": cert.sqrt_disc,
        "galois_class": cert.galois_class.value,
        "point": {"x": x, "y": y},
        "torsion_primes": list(cert.torsion_primes),
        "torsion_bound": cert.torsion_bound,
        "nontorsion_checked_to": cert.nontorsion_checked_to,
        "disjointness": [
            {"vs_s": e.s, "verdict": "distinct_fields", "prime": p}
            for e, p in zip(earlier, cert.witnesses, strict=True)
        ],
    }


def oracle(head, certificates):
    """The scan document through the dict form and json's own encoder."""
    dicts = [certificate_dict(c, certificates[:i]) for i, c in enumerate(certificates)]
    return dumps_canonical({**head, "certificates": dicts})


def scan_head(result, config):
    return {"schema": "v1", "config": config.to_json_dict(), "summary": result.summary()}


SCANS = [
    (a1, a4, height, jobs)
    for a1, a4 in (("1", "1"), ("2", "3"), ("3/2", "1"))
    for height in range(1, 9)
    for jobs in (1, 2)
]


@pytest.mark.parametrize("a1, a4, height, jobs", SCANS)
def test_scan_writer_matches_the_dict_oracle(a1, a4, height, jobs, monkeypatch, capsys):
    results = []
    scan = family.scan_family

    def recorded_scan(*args, **kwargs):
        results.append(scan(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(family, "scan_family", recorded_scan)
    argv = ["family-scan", "--a1", a1, "--a4", a4, "--s-height-max", str(height)]
    assert cli.main([*argv, "--jobs", str(jobs)]) == 0
    config = cli.ScanConfig(Fraction(a1), Fraction(a4), height, 1000, 2, None)
    (result,) = results
    assert capsys.readouterr().out == oracle(scan_head(result, config), result.certificates)


def test_scan_writer_with_explicit_torsion_primes_and_no_certificates():
    result = family.scan_family(family.derive_family(1, 1), 4, torsion_primes=(5, 17))
    config = cli.ScanConfig(Fraction(1), Fraction(1), 4, 1000, (5, 17), None)
    head = scan_head(result, config)
    assert dumps_scan(head, result.certificates) == oracle(head, result.certificates)
    assert dumps_scan(head, []) == oracle(head, [])


def test_scan_writer_renders_each_witness_once(monkeypatch):
    result = family.scan_family(family.derive_family(1, 1), 4, witness_bound=500)
    pairs = [p for cert in result.certificates for p in cert.witnesses]
    expected = oracle({"schema": "v1"}, result.certificates)
    calls = []
    lines = scandoc._witness_lines
    monkeypatch.setattr(scandoc, "_witness_lines", lambda p: calls.append(p) or lines(p))
    assert dumps_scan({"schema": "v1"}, result.certificates) == expected
    assert sorted(calls) == sorted(set(pairs)) and len(calls) < len(pairs)


def test_scan_writer_refuses_a_layout_it_cannot_keep():
    result = family.scan_family(family.derive_family(1, 1), 2)
    with pytest.raises(ValueError, match="sort after 'certificates'"):
        dumps_scan({"accepted": 1}, result.certificates)
    with pytest.raises(ValueError, match="sort after 'certificates'"):
        dumps_scan({}, result.certificates)
    first, cert = result.certificates[:2]
    for unwritable in (None, True, "5"):
        planted = cert._replace(witnesses=(unwritable,))
        with pytest.raises(TypeError, match="as a scan scalar"):
            dumps_scan({"schema": "v1"}, [first, planted])


def test_scan_writer_refuses_a_witness_count_that_is_not_positional():
    """Witness j pairs with certificate j, so a certificate with a witness
    too few or too many would shift or drop a pair; the writer refuses it."""
    certs = family.scan_family(family.derive_family(1, 1), 4).certificates
    assert len(certs) >= 3
    assert dumps_scan({"schema": "v1"}, certs)
    for i in (1, len(certs) // 2, len(certs) - 1):
        cert = certs[i]
        assert len(cert.witnesses) == i
        for witnesses in (cert.witnesses[:-1], cert.witnesses + (cert.witnesses[0],)):
            planted = [*certs[:i], cert._replace(witnesses=witnesses), *certs[i + 1 :]]
            with pytest.raises(ValueError, match=f"certificate {i} has {len(witnesses)} witnesses"):
                dumps_scan({"schema": "v1"}, planted)

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction as Q
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, strategies as st

from vkg import collapsing, pbw, serialize
from vkg.cli import (CAP_ENV_VAR, _randrange_draws, _write_json, main,
                     read_config_file)
from vkg.liealg import build_realization
from vkg.pbw import MAX_SEARCH_DEGREE, Kernel

from helpers import (
    double_pairing,
    flip_structure_constant,
    materialize,
    state_from_json,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_involutions_count(capsys):
    code, out, _ = run(capsys, "involutions", "--ell", "3", "--count")
    assert code == 0
    assert out.strip() == "15"


def test_involutions_signs_json(capsys):
    code, out, _ = run(capsys, "involutions", "--ell", "2", "--signs",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert [r["sign"] for r in payload["involutions"]] == [1, -1, 1]


@pytest.mark.parametrize("argv, engines", [
    ("--algebra D:4 --family w1", 1),
    ("--algebra D:4 --family w3", 1),
    ("--algebra B:4 --family w1", 1),
    ("--algebra D:5 --family vn --n 2", 1),
    ("--algebra D:6 --family wn --n 1", 1),
    ("--algebra D:6 --family theta-wn --n 1", 1),
    ("--algebra E7 --family ve7", 2),
])
def test_singular_verify_builds_one_engine_per_query(monkeypatch, capsys,
                                                     argv, engines):
    """The formula vectors are multiplied by sorted runs, so the singularity
    check builds the one straightening engine; E7 builds a second for its
    support solve.  A count of constructions, not a clock."""
    built, init = [], pbw._Engine.__init__

    def counted(self, lr, k):
        built.append(k)
        init(self, lr, k)

    monkeypatch.setattr(pbw._Engine, "__init__", counted)
    code, out, _ = run(capsys, "singular-verify", *argv.split())
    assert code == 0 and "singular at level" in out
    assert len(built) == engines


def test_singular_verify_wn_report(capsys):
    code, out, _ = run(capsys, "singular-verify", "--algebra", "D:6",
                       "--family", "wn", "--n", "1")
    assert code == 0
    assert "singular at level -4, degree 3, 15 support monomials" in out


def test_singular_verify_failure_witness(capsys):
    code, out, _ = run(capsys, "singular-verify", "--algebra", "D:4",
                       "--family", "wn", "--n", "1", "--level=-1")
    assert code == 1
    payload = json.loads(out)
    assert payload["singular"] is False
    assert "witness" in payload and payload["witness"]["generator"]


def test_singular_search_round_trip(capsys):
    code, out, _ = run(capsys, "singular-search", "--algebra", "D:4",
                       "--level=-2", "--weight", "1,1,1,1", "--degree", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kernel_dimension"] == 1
    lr = build_realization("D", 4)
    v = state_from_json(lr, payload["vectors"][0])
    assert serialize.state_to_json(lr, v) == payload["vectors"][0]


def test_singular_search_capped(capsys):
    code, out, _ = run(capsys, "singular-search", "--algebra", "D:6",
                       "--level=-2", "--weight", "0,0,0,0,0,0",
                       "--degree", "5", "--cap", "1000")
    assert code == 0
    assert out == "D6: capped (graded component exceeds cap 1000)\n"


def test_collapse_audit_exit_zero(capsys):
    code, out, _ = run(capsys, "collapse", "--audit")
    assert code == 0
    assert "failures: 0" in out


def test_collapse_single_level(capsys):
    code, out, _ = run(capsys, "collapse", "--algebra", "E8", "--level=-10",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["target"] == "E7" and payload["k_prime"] == "-4"


def test_collapse_non_collapsing_level(capsys):
    code, out, _ = run(capsys, "collapse", "--algebra", "E8", "--level=-7")
    assert code == 1
    assert json.loads(out)["collapsing"] is False


def test_collapse_latex_and_csv(capsys):
    code, out, _ = run(capsys, "collapse", "--algebra", "G2",
                       "--format", "latex")
    assert code == 0
    assert out.startswith("\\begin{tabular}")
    code, out, _ = run(capsys, "collapse", "--algebra", "G2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "algebra,k,target,k_prime"
    assert "G2,-4/3,sl(2),1" in lines


def test_collapse_super_reference(capsys):
    code, out, _ = run(capsys, "collapse", "--algebra", "G2", "--super",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["super_reference"]) == 25


def test_kl_json(capsys):
    code, out, _ = run(capsys, "kl", "--algebra", "B:3", "--level=-2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["provenance"]
    weights = payload["families"][0]["weights"]
    assert weights == [["0", "0", "0"], ["1", "0", "0"]]


def test_weights_verb(capsys):
    code, out, _ = run(capsys, "weights", "--algebra", "D:4",
                       "--mu", "1,0,0,0", "--level=-2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["sugawara_weight"] == "7/8"
    assert payload["w_lowest_weight"] == "3/8"
    assert payload["theta_coeff_roots"] == ["0", "-1"]


def test_roots_json(capsys):
    code, out, _ = run(capsys, "roots", "--algebra", "E7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["roots"]) == 126
    assert payload["dual_coxeter"] == "18"


def test_bracket_audit(capsys):
    code, out, _ = run(capsys, "bracket-audit", "--algebra", "B:2")
    assert code == 0
    assert "exhaustive" in out
    code, out, _ = run(capsys, "bracket-audit", "--algebra", "D:6",
                       "--samples", "200", "--seed", "3")
    assert code == 0
    assert "sampled" in out


@pytest.mark.parametrize("n", [31, 32, 33, 133, 248])
def test_sampled_triples_are_drawn_as_randrange_draws(n):
    """The sampler's draws are the values of successive rng.randrange(n)
    calls and leave the generator in the same state, so the sampled triples
    and any witness are those of three randrange calls per triple."""
    for seed in (0, 1, 3, 7, 2024):
        ours, theirs = random.Random(seed), random.Random(seed)
        drawn = list(_randrange_draws(ours, n, 900))
        assert drawn == [theirs.randrange(n) for _ in range(900)]
        assert ours.getstate() == theirs.getstate()


def test_bracket_audit_refuses_a_broken_table(monkeypatch, capsys):
    """On a B2 table with one structure constant negated, the exhaustive
    audit exits 1 with the first failing triple as its witness."""
    lr = build_realization("B", 2)
    broken = flip_structure_constant(lr, *lr.rs.simple_roots)
    monkeypatch.setattr("vkg.cli.build_realization", lambda *_: broken)
    code, out, _ = run(capsys, "bracket-audit", "--algebra", "B:2")
    assert code == 1
    assert out == ('{"triple": ["-1,-1", "0,1", "1,-1"], '
                   '"kind": "jacobi-or-invariance"}\n')


def test_bracket_audit_refuses_a_changed_pairing(monkeypatch, capsys):
    """On an A2 table with one pairing doubled, only invariance fails, and
    the witness is the first such triple in itertools.product order."""
    lr = build_realization("A", 2)
    broken = double_pairing(lr, lr.rs.simple_roots[0])
    monkeypatch.setattr("vkg.cli.build_realization", lambda *_: broken)
    code, out, _ = run(capsys, "bracket-audit", "--algebra", "A:2")
    assert code == 1
    assert out == ('{"triple": ["-1,0,1", "0,1,-1", "1,-1,0"], '
                   '"kind": "jacobi-or-invariance"}\n')


def test_usage_errors(capsys):
    code, _, err = run(capsys, "kl", "--algebra", "Dx", "--level=-2")
    assert code == 2
    code, _, err = run(capsys, "kl", "--algebra", "D:6", "--level=-3")
    assert code == 2
    assert "not" in err or "no classification" in err
    code, _, _ = run(capsys, "weights", "--algebra", "D:4",
                     "--mu", "1,0,0,0", "--level", "0.5")
    assert code == 2
    code, _, _ = run(capsys, "flubber")
    assert code == 2
    code, _, _ = run(capsys, "weights", "--algebra", "D:4",
                     "--mu", "1,0", "--level=-2")
    assert code == 2


def test_determinism(capsys):
    a = run(capsys, "roots", "--algebra", "D:5", "--format", "json")
    b = run(capsys, "roots", "--algebra", "D:5", "--format", "json")
    assert a == b
    a = run(capsys, "singular-search", "--algebra", "D:4", "--level=-2",
            "--weight", "1,1,1,1", "--degree", "2", "--format", "json")
    b = run(capsys, "singular-search", "--algebra", "D:4", "--level=-2",
            "--weight", "1,1,1,1", "--degree", "2", "--format", "json")
    assert a == b


def test_config_file_and_env(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "vkg.cfg"
    cfg.write_text("# defaults\ncap = 1500\nformat = json\n")
    parsed = read_config_file(str(cfg))
    assert parsed == {"cap": "1500", "format": "json"}
    code, out, _ = run(capsys, "involutions", "--ell", "2",
                       "--count", "--config", str(cfg))
    assert code == 0
    assert json.loads(out) == {"ell": 2, "count": 3}
    # environment overrides the file; the flag overrides both
    monkeypatch.setenv(CAP_ENV_VAR, "800")
    code, _, err = run(capsys, "involutions", "--ell", "2", "--count",
                       "--config", str(cfg))
    assert code == 2 and "cap" in err
    code, out, _ = run(capsys, "involutions", "--ell", "2", "--count",
                       "--config", str(cfg), "--cap", "2000")
    assert code == 0


def test_unreadable_config_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    with pytest.raises(ValueError):
        read_config_file(str(missing))
    code, out, err = run(capsys, "involutions", "--ell", "2", "--count",
                         "--config", str(tmp_path))
    assert code == 2 and out == ""
    assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_collapse_refuses_flags_its_mode_does_not_read(capsys):
    for argv, flag in [
        (("--audit", "--algebra", "E8"), "--audit does not take --algebra"),
        (("--audit", "--level=-10"), "--audit does not take --level"),
        (("--audit", "--polynomials"), "--audit does not take --polynomials"),
        (("--audit", "--super"), "--audit does not take --super"),
        (("--polynomials", "--level=-10"),
         "--polynomials does not take --level"),
        (("--level=-10",), "--level needs --algebra"),
        (("--algebra", "E8", "--level=-10", "--super"),
         "--level does not take --super"),
    ]:
        code, out, err = run(capsys, "collapse", *argv)
        assert (code, out, err) == (2, "", f"error: collapse {flag}\n")


def _vkg_process(*argv):
    """A fresh interpreter running the `vkg` console-script body on ``argv``,
    with stdout and stderr piped."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.Popen(
        [sys.executable, "-c", "import sys; from vkg.cli import main; "
         "sys.exit(main())", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)


def test_capped_v_n_refusal_peaks_below_48_mib():
    """Refusing v_200 on D4 at cap 1000 (its component at degree 400 is
    larger) walks only the generators that can occur: the process peaks
    below 48 MiB, read as its own VmHWM after main() returns (about 71 MiB
    while the walk ran over every generator in basis order).  A bound on
    memory, not on time."""
    status = Path("/proc/self/status")
    if not status.exists():
        pytest.skip("VmHWM needs /proc/self/status")
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; from vkg.cli import main; code = main(); "
            "sys.stdout.flush(); print(next(line for line in "
            f"open({str(status)!r}) if line.startswith('VmHWM')).split()[1], "
            "file=sys.stderr); sys.exit(code)")
    proc = subprocess.run(
        [sys.executable, "-c", code, "singular-verify", "--algebra", "D:4",
         "--family", "vn", "--n", "200", "--cap", "1000"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0
    assert proc.stdout == ("D4 vn n=200: capped (graded component at degree "
                           "400 exceeds cap 1000)\n")
    peak_kib = int(proc.stderr)
    assert peak_kib < 48 * 1024, peak_kib


def _read_e8_json_then_close(nbytes):
    """Run `roots --algebra E8 --realization --format json` in a fresh
    interpreter, read ``nbytes`` of stdout and close it: exit code, the
    bytes read and stderr."""
    proc = _vkg_process("roots", "--algebra", "E8", "--realization",
                        "--format", "json")
    head = proc.stdout.read(nbytes)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=120), head, err


def test_closed_stdout_ends_the_run_quietly():
    """A reader that stops early is not an error: exit 0, nothing on stderr,
    and no failed flush reported at interpreter shutdown."""
    code, head, err = _read_e8_json_then_close(10)
    assert code == 0
    assert head == b'{\n  "root_'
    assert err == b""


def test_reader_closing_after_the_first_batch_ends_the_run_quietly():
    """The same after 300 000 bytes, past the first batch of the JSON
    writer."""
    code, head, err = _read_e8_json_then_close(300_000)
    assert code == 0
    assert len(head) == 300_000
    assert err == b""


def test_process_entry_freezes_the_start_up_objects(monkeypatch, capsys):
    """main() reading the process's own command line first moves every
    object tracked so far into the permanent generation, which no
    collection walks."""
    monkeypatch.setattr(sys, "argv",
                        ["vkg", "involutions", "--ell", "3", "--count"])
    before = gc.get_freeze_count()
    try:
        assert main() == 0
        assert gc.get_freeze_count() > before
    finally:
        gc.unfreeze()
    assert capsys.readouterr().out == "15\n"


def test_in_process_main_leaves_the_collector_alone(capsys):
    before = gc.get_freeze_count()
    assert run(capsys, "involutions", "--ell", "3", "--count")[:2] == (0, "15\n")
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv, exit_code", [
    ("singular-verify --algebra D:4 --family w1", 0),
    ("singular-verify --algebra D:4 --family w1 --level=-3", 1),
    ("singular-verify --algebra D:4", 2),
])
def test_process_entry_matches_in_process_main(monkeypatch, capsys, argv,
                                               exit_code):
    """The console-script body in a fresh interpreter gives the exit code,
    stdout bytes and stderr of main(argv) in process."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to this width
    proc = _vkg_process(*argv.split())
    out, err = proc.communicate(timeout=120)
    code, in_out, in_err = run(capsys, *argv.split())
    assert code == exit_code
    assert (proc.returncode, out, err) == (code, in_out.encode(),
                                           in_err.encode())
    if code == 1:
        assert json.loads(out)["witness"]


def _json_writes(monkeypatch, payload, **kw):
    """Each string `_write_json` writes to ``sys.stdout``, in order."""
    writes = []
    with monkeypatch.context() as m:
        m.setattr(sys, "stdout", types.SimpleNamespace(write=writes.append))
        _write_json(payload, **kw)
    return writes


def _e8_payload():
    return serialize.realization_to_json(build_realization("E", 8))


@pytest.fixture
def e8_realization_json():
    """A fresh E8 payload: its generators can be read only once."""
    return _e8_payload()


def test_json_writer_prints_what_one_dumps_prints(monkeypatch):
    """The batched writer gives the bytes of ``print(json.dumps(...))``: on
    a document of many batches, on values that need ``default=str`` and on
    empty and nested-empty containers.  Each case is built twice, once for
    ``json`` (its generators read into lists) and once for the writer."""
    cases = [
        (_e8_payload, {}),
        (lambda: {"level": Q(-3, 2), "rows": [[Q(4), "x"], {"k": Q(1, 7)}]},
         {"default": str}),
        (dict, {}), (list, {}), (lambda: {"a": [], "b": {}}, {}),
        (lambda: [[], [{}], {"c": []}], {}),
    ]
    for make, kw in cases:
        text = json.dumps(materialize(make()), indent=2, **kw) + "\n"
        writes = _json_writes(monkeypatch, make(), **kw)
        assert "".join(writes) == text
        assert writes[-1] == "\n"


def test_json_writer_never_writes_the_whole_document(monkeypatch,
                                                     e8_realization_json):
    """No single write of the E8 realization is longer than a quarter of
    the document, so it is never held as one string (and the document of
    the test above takes several batches)."""
    writes = _json_writes(monkeypatch, e8_realization_json)
    total = sum(map(len, writes))
    assert max(map(len, writes)) <= total // 4


class _Pair(NamedTuple):
    first: object
    second: object


class _Lazy(list):
    """A list that the writer is given as a generator."""


def _lazy(spec):
    """A fresh payload from ``spec``: each ``_Lazy`` list, at any depth, is
    a generator, and every other container keeps its type."""
    if isinstance(spec, _Lazy):
        return (_lazy(v) for v in spec)
    if isinstance(spec, Kernel):
        return Kernel([_lazy(v) for v in spec], spec.component_dimension)
    if isinstance(spec, dict):
        return {k: _lazy(v) for k, v in spec.items()}
    if isinstance(spec, _Pair):
        return _Pair._make(map(_lazy, spec))
    if isinstance(spec, (list, tuple)):
        return type(spec)(map(_lazy, spec))
    return spec


_TEXT = st.text() | st.sampled_from([
    "", "\x00\x1f\x7f", "tab\there\nnewline", 'quote " and \\',
    "é ∑ \u2028", "\U0001f600 \ud800"])
_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
_KEYS = _TEXT | st.integers() | _FLOATS | st.booleans() | st.none()
_LEAVES = (_TEXT | st.none() | st.booleans() | _FLOATS | st.fractions()
           | st.integers() | st.integers(min_value=2 ** 64, max_value=2 ** 300)
           | st.integers(min_value=-2 ** 300, max_value=-2 ** 64))


def _containers(children):
    items = st.lists(children, max_size=4)
    return (items | items.map(tuple) | items.map(_Lazy)
            | st.builds(_Pair, children, children)
            | items.map(lambda vs: Kernel(vs, len(vs)))
            | st.dictionaries(_KEYS, children, max_size=4))


@given(st.recursive(_LEAVES, _containers, max_leaves=25))
@example({math.nan: [math.inf, -math.inf, math.nan, -0.0], 1.5: _Lazy(),
          None: _Lazy([_Lazy([Q(1, 3), _Pair((), {})]), 2 ** 70]),
          True: "\x00é", False: Kernel([], 0), -(2 ** 70): _Lazy([{}])})
def test_json_writer_matches_json_on_random_payloads(spec):
    """On nested payloads of generators, tuples, records, ``Kernel`` lists
    and dicts with every kind of scalar key, the writer prints what
    ``json.dumps`` prints of the payload with its generators read into
    lists: non-ASCII and control characters, ``Fraction`` through
    ``default``, NaN and infinities, big ints and empty containers."""
    expected = json.dumps(materialize(_lazy(spec)), indent=2, default=str)
    with contextlib.redirect_stdout(io.StringIO()) as sink:
        _write_json(_lazy(spec), default=str)
    assert sink.getvalue() == expected + "\n"


@pytest.mark.parametrize("payload,default", [
    ({(1, 2): 0}, str), ({Q(1, 2): 0}, str), ([{"a": {b"x": 1}}], str),
    ({frozenset(): []}, None), (Q(1, 2), None), ([0, {"a": object()}], None),
])
def test_json_writer_refuses_what_json_refuses(payload, default):
    """A key that is not a str or a scalar is a ``TypeError`` even with a
    ``default``, as is a value that no ``default`` turns into JSON; the
    message is json's."""
    with pytest.raises(TypeError) as expected:
        json.dumps(payload, indent=2, default=default)
    with contextlib.redirect_stdout(io.StringIO()):
        with pytest.raises(TypeError) as raised:
            _write_json(payload, default=default)
    assert str(raised.value) == str(expected.value)


def test_e8_realization_write_peaks_below_one_mib(monkeypatch):
    """Written to a sink that keeps nothing, the E8 realization document
    is never held: building and writing the payload peaks below 1 MiB
    under ``tracemalloc`` (about 6 MiB while ``json`` needed its lists)."""
    lr = build_realization("E", 8)
    monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=len))
    tracemalloc.start()
    try:
        _write_json(serialize.realization_to_json(lr))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("colour = green\n")
    with pytest.raises(ValueError):
        read_config_file(str(cfg))


def test_resolved_cap_and_format_are_checked(tmp_path, capsys):
    """A cap below 1000, an unknown format and a config line without '='
    are usage errors; the format is checked first.  The default cap is
    pinned by test_involutions_refused_above_cap."""
    yaml, noeq = tmp_path / "yaml.cfg", tmp_path / "noeq.cfg"
    yaml.write_text("format = yaml\n")
    noeq.write_text("cap 1500\n")
    for argv, message in [
        (("--cap", "999"), "cap must be at least 1000"),
        (("--config", str(yaml)), "unknown format 'yaml'"),
        (("--config", str(yaml), "--cap", "999"), "unknown format 'yaml'"),
        (("--config", str(noeq)), f"{noeq}:1: expected 'key = value'"),
    ]:
        code, out, err = run(capsys, "involutions", "--ell", "2", "--count",
                             *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_only_the_winning_cap_and_seed_sources_are_parsed(tmp_path,
                                                          monkeypatch, capsys):
    """A bad source that a flag or VKG_CAP overrides is never read; a bad
    source that wins names itself, after the format check."""
    bad, yaml = tmp_path / "bad.cfg", tmp_path / "yaml.cfg"
    bad.write_text("cap = x1\nseed = q\n")
    yaml.write_text("format = yaml\ncap = x1\n")
    count = ("involutions", "--ell", "2", "--count")
    for argv, message in [
        (("--config", str(bad)), f"{bad}: cap: invalid literal for int() "
         "with base 10: 'x1'"),
        (("--config", str(bad), "--cap", "2000"), f"{bad}: seed: invalid "
         "literal for int() with base 10: 'q'"),
        (("--config", str(yaml)), "unknown format 'yaml'"),
    ]:
        code, out, err = run(capsys, *count, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
    code, out, _ = run(capsys, *count, "--config", str(bad), "--cap", "2000",
                       "--seed", "1")
    assert (code, out) == (0, "3\n")
    monkeypatch.setenv(CAP_ENV_VAR, "abc")
    code, out, err = run(capsys, *count, "--config", str(bad))
    assert (code, out) == (2, "")
    assert err == ("error: VKG_CAP: invalid literal for int() with base 10: "
                   "'abc'\n")
    monkeypatch.setenv(CAP_ENV_VAR, "1500")
    code, out, err = run(capsys, *count, "--config", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: seed: ")


def test_seed_reaches_the_sampler(tmp_path, monkeypatch, capsys):
    """Flag > config file > default 0, as handed to random.Random."""
    seeds = []

    def recorded(seed):
        seeds.append(seed)
        return random.Random(seed)

    monkeypatch.setattr("vkg.cli.random", types.SimpleNamespace(Random=recorded))
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 7\n")
    audit = ("bracket-audit", "--algebra", "D:6", "--samples", "200")
    for extra in [(), ("--config", str(cfg)),
                  ("--config", str(cfg), "--seed", "9")]:
        code, out, _ = run(capsys, *audit, *extra)
        assert code == 0 and "200/200 triples checked (sampled)" in out
    assert seeds == [0, 7, 9]


def test_empty_cap_variable_counts_as_unset(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(CAP_ENV_VAR, "")
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("cap = 1500\n")
    code, out, _ = run(capsys, "involutions", "--ell", "6", "--config",
                       str(cfg))
    assert code == 0
    assert out == "ell=6: capped (10395 involutions exceed cap 1500)\n"


def test_roots_realization_dump(capsys):
    code, out, _ = run(capsys, "roots", "--algebra", "B:2", "--realization")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["basis"]) == 10
    assert payload["basis"][0] == "h:1"
    assert any(lab == "1,1" for lab in payload["basis"])
    assert payload["bracket"] and payload["form"]
    # bracket entries are sparse triples [i, j, [[index, coeff], ...]]
    i, j, terms = payload["bracket"][0]
    assert isinstance(i, int) and isinstance(j, int)
    assert all(isinstance(t[0], int) and isinstance(t[1], str) for t in terms)


def test_collapse_polynomials(capsys):
    code, out, _ = run(capsys, "collapse", "--polynomials",
                       "--algebra", "E8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["polynomials"] == [{"algebra": "E8", "roots": ["-6", "-10"]}]
    code, out, _ = run(capsys, "collapse", "--polynomials", "--format", "latex")
    assert code == 0
    assert out.startswith("\\begin{tabular}")
    code, out, _ = run(capsys, "collapse", "--polynomials", "--super",
                       "--format", "json")
    assert len(json.loads(out)["super_reference"]) == 9


def test_kl_text_marks_infinite_families(capsys):
    code, out, _ = run(capsys, "kl", "--algebra", "D:6", "--level=-4",
                       "--quotient", "vbar", "--limit", "3")
    assert code == 0
    assert "..." in out


def test_collapse_full_table_text(capsys):
    code, out, _ = run(capsys, "collapse")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 51
    assert any("E8" in ln and "-10" in ln for ln in lines)


def test_kl_limit_controls_materialization(capsys):
    code, out, _ = run(capsys, "kl", "--algebra", "D:6", "--level=-2",
                       "--quotient", "intermediate", "--limit", "4",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    fam = payload["families"][0]
    assert fam["infinite"] and len(fam["weights"]) == 4


def test_roots_csv(capsys):
    code, out, _ = run(capsys, "roots", "--algebra", "B:2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "coordinates"
    assert len(out.strip().splitlines()) == 9  # header + 8 roots


def test_ve7_on_other_algebra_is_usage_error(capsys):
    code, out, err = run(capsys, "singular-verify", "--algebra", "D:4",
                         "--family", "ve7")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "E7" in err


def test_deep_degree_is_usage_error(capsys):
    code, out, err = run(capsys, "singular-verify", "--algebra", "D:4",
                         "--family", "vn", "--n", "600", "--cap", "1000")
    assert code == 2 and out == ""
    assert err == ("error: degree 1200 exceeds the search depth bound "
                   f"{MAX_SEARCH_DEGREE}\n")


def test_bad_level_refused_before_building(monkeypatch, capsys):
    def build_w_n(*args, **kwargs):
        raise AssertionError("built the vector before parsing --level")

    monkeypatch.setattr("vkg.vectors.build_w_n", build_w_n)
    code, out, err = run(capsys, "singular-verify", "--algebra", "D:8",
                         "--family", "wn", "--n", "2", "--level=abc")
    assert code == 2
    assert out == ""
    assert err.startswith("error: not an exact rational")


@pytest.mark.parametrize("argv, error", [
    (("--level=abc", "--weight", "0,0,0,0,0,0,0,0", "--degree", "2"),
     "error: not an exact rational"),
    (("--level=-2", "--weight", "0,0,0", "--degree", "2"),
     "error: weight needs 8 coordinates for E8"),
    (("--level=-2", "--weight", "0,0,0,0,0,0,0,0", "--degree", "-1"),
     "error: degree must be nonnegative"),
    (("--weight", "0,0,0,0,0,0,0,0", "--degree", "2"),
     "error: --level is required here\n"),
])
def test_bad_search_arguments_refused_before_building(monkeypatch, capsys,
                                                       argv, error):
    def build_realization(*args, **kwargs):
        raise AssertionError("built the realization before checking arguments")

    monkeypatch.setattr("vkg.cli.build_realization", build_realization)
    code, out, err = run(capsys, "singular-search", "--algebra", "E8", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(error)


@pytest.mark.parametrize("samples", ["-5", "0"])
def test_bracket_audit_needs_a_sample(monkeypatch, capsys, samples):
    def build_realization(*args, **kwargs):
        raise AssertionError("built the realization before checking --samples")

    monkeypatch.setattr("vkg.cli.build_realization", build_realization)
    code, out, err = run(capsys, "bracket-audit", "--algebra", "D:6",
                         "--samples", samples)
    assert code == 2
    assert out == ""
    assert err.startswith("error: samples must be at least 1")


@pytest.mark.parametrize("algebra, family", [
    ("D:4", "w1"), ("B:4", "w1"), ("D:4", "w3"), ("E7", "ve7"),
])
def test_fixed_family_refuses_n_before_building(monkeypatch, capsys,
                                                 algebra, family):
    def build_realization(*args, **kwargs):
        raise AssertionError("built the realization before checking --n")

    monkeypatch.setattr("vkg.cli.build_realization", build_realization)
    code, out, err = run(capsys, "singular-verify", "--algebra", algebra,
                         "--family", family, "--n", "40", "--format", "json")
    assert (code, out) == (2, "")
    assert err == (f"error: singular-verify --family {family} does not take "
                   "--n\n")


def test_involutions_refused_above_cap(monkeypatch, capsys):
    def enumerate_involutions(ell):
        raise AssertionError("enumerated despite the cap")

    monkeypatch.setattr("vkg.vectors.enumerate_involutions",
                        enumerate_involutions)
    code, out, _ = run(capsys, "involutions", "--ell", "8", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "ell": 8, "status": "capped",
        "detail": "2027025 involutions exceed cap 200000",
    }


@pytest.mark.parametrize("mode", [(), ("--count",)])
def test_involutions_past_the_digit_limit_are_capped(capsys, mode):
    """A count str() cannot write is refused, not computed in full."""
    code, out, err = run(capsys, "involutions", "--ell", "1000000", *mode)
    assert (code, err) == (0, "")
    assert out == ("ell=1000000: capped (the count (2*1000000-1)!! has more "
                   f"than {sys.get_int_max_str_digits()} digits)\n")


def test_involutions_count_below_the_digit_limit_is_exact(capsys):
    code, out, _ = run(capsys, "involutions", "--ell", "1400", "--count")
    assert code == 0
    assert out == f"{math.prod(range(1, 2800, 2))}\n"


def test_bracket_audit_samples_above_cap_are_capped(monkeypatch, capsys):
    def build_realization(*args, **kwargs):
        raise AssertionError("built the realization despite the cap")

    monkeypatch.setattr("vkg.cli.build_realization", build_realization)
    code, out, _ = run(capsys, "bracket-audit", "--algebra", "E8",
                       "--samples", "300000")
    assert code == 0
    assert out == "E8: capped (300000 samples exceed cap 200000)\n"
    code, out, _ = run(capsys, "bracket-audit", "--algebra", "D:6",
                       "--samples", "1001", "--cap", "1000", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "algebra": "D6", "status": "capped",
        "detail": "1001 samples exceed cap 1000",
    }


@pytest.mark.parametrize("k, recomputed", [
    (-10, {"target": "E7", "k_prime": "-4"}),   # only k' is wrong
    (-7, {"error": "E8 at k = -7"}),             # not a collapsing level
])
def test_collapse_audit_witness_names_what_disagrees(monkeypatch, capsys,
                                                     k, recomputed):
    stored = collapsing.stored_table5_rows

    def stored_table5_rows(g):
        rows = stored(g)
        if g == ("E", 8):   # the k = -10 row, patched to (k, E7, -5)
            rows[0] = rows[0]._replace(k=Q(k), k_prime=Q(-5))
        return rows

    monkeypatch.setattr("vkg.collapsing.stored_table5_rows",
                        stored_table5_rows)
    code, out, _ = run(capsys, "collapse", "--audit", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["failures"] == 1
    bad, = [r for r in payload["collapsing_rows"] if not r["ok"]]
    assert bad == {"algebra": "E8", "k": str(k), "target": "E7",
                   "k_prime": "-5", "ok": False, "recomputed": recomputed}
    assert all("recomputed" not in r for r in payload["collapsing_rows"]
               if r["ok"])
    code, out, _ = run(capsys, "collapse", "--audit")
    assert code == 1
    line, = [ln for ln in out.splitlines() if "MISMATCH" in ln]
    assert line.endswith(f'"recomputed": {json.dumps(recomputed)}}}')


def _refuse_materialize(monkeypatch):
    def materialize(self, limit=10):
        raise AssertionError("materialized despite the limit check")

    monkeypatch.setattr("vkg.conformal.WeightFamily.materialize", materialize)


def test_kl_limit_above_cap_is_capped(monkeypatch, capsys):
    _refuse_materialize(monkeypatch)
    code, out, _ = run(capsys, "kl", "--algebra", "D:6", "--level=-2",
                       "--quotient", "intermediate", "--limit", "200001",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "algebra": "so(12)", "level": "-2", "quotient": "intermediate",
        "status": "capped", "detail": "limit 200001 exceeds cap 200000",
    }
    code, out, _ = run(capsys, "kl", "--algebra", "D:6", "--level=-2",
                       "--limit", "1001", "--cap", "1000")
    assert code == 0
    assert out == ("so(12) at k = -2 (simple): capped "
                   "(limit 1001 exceeds cap 1000)\n")


def test_kl_limit_caps_the_total_over_families(monkeypatch, capsys):
    # each of the two spin ladders would list 600 weights: 1200 in total
    _refuse_materialize(monkeypatch)
    code, out, _ = run(capsys, "kl", "--algebra", "D:6", "--level=-4",
                       "--quotient", "vbar", "--limit", "600", "--cap",
                       "1000", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "algebra": "so(12)", "level": "-4", "quotient": "vbar",
        "status": "capped", "detail": "1200 weights exceed cap 1000",
    }


def test_kl_negative_limit_is_usage_error(monkeypatch, capsys):
    _refuse_materialize(monkeypatch)
    code, out, err = run(capsys, "kl", "--algebra", "D:6", "--level=-2",
                         "--quotient", "intermediate", "--limit", "-3")
    assert code == 2
    assert out == ""
    assert err == "error: limit must be nonnegative\n"


def test_singular_search_enumerates_the_component_once(capsys, monkeypatch):
    import vkg.pbw
    calls = []
    search = vkg.pbw._search

    def counted(*args):
        calls.append(args[1:3])
        return search(*args)

    monkeypatch.setattr(vkg.pbw, "_search", counted)
    code, out, _ = run(capsys, "singular-search", "--algebra", "D:4",
                       "--weight", "1,1,1,1", "--degree", "2", "--level=-2")
    assert code == 0
    assert len(calls) == 1
    assert out.startswith("D4 at level -2: component dimension 3, kernel dimension 1")


def test_unparsable_matrix_label(capsys):
    code, out, err = run(capsys, "roots", "--algebra", "sl(x)")
    assert code == 2 and out == ""
    assert err == "error: cannot parse algebra label 'sl(x)'\n"


@pytest.mark.parametrize("argv", [
    ("roots", "--algebra", ""),
    ("collapse", "--algebra", ""),
    ("collapse", "--polynomials", "--algebra", ""),
    ("collapse", "--algebra", "", "--level=-10"),
])
def test_empty_algebra_label_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: cannot parse algebra label ''\n"


@pytest.mark.parametrize("argv, exit_code", [
    (("roots", "--algebra", "so(0)"), 2),
    (("roots", "--algebra", "sl(0)"), 2),
    (("roots", "--algebra", "sl(x)"), 2),
    (("roots", "--algebra", "D:-3"), 2),
    (("roots", "--algebra", ""), 2),
    (("weights", "--algebra", "D:4", "--level=-6", "--mu", "0,0,0,0"), 2),
    (("kl", "--algebra", "D:4", "--level=-6"), 2),
    (("collapse", "--algebra", "A:1"), 2),
    (("collapse", "--algebra", "A:1", "--polynomials"), 2),
    (("collapse", "--algebra", "A:1", "--level=-1"), 2),
    (("collapse", "--algebra", "A:1", "--audit"), 2),
    (("singular-verify", "--algebra", "B:3", "--family", "w3"), 2),
    (("singular-verify", "--algebra", "A:3", "--family", "w1"), 2),
    (("singular-verify", "--algebra", "B:3", "--family", "wn"), 2),
    (("singular-verify", "--algebra", "B:3", "--family", "theta-wn"), 2),
    (("singular-verify", "--algebra", "A:3", "--family", "vn"), 2),
    (("singular-verify", "--algebra", "E6", "--family", "ve7"), 2),
    (("involutions", "--ell", "0"), 2),
    (("kl", "--algebra", "D:6", "--level=-2", "--limit", "-1"), 2),
    (("bracket-audit", "--algebra", "E8", "--samples", "300000"), 0),
    (("collapse", "--audit", "--algebra", "E8"), 2),
    (("collapse", "--audit", "--super"), 2),
    (("collapse", "--level=-10"), 2),
    (("collapse", "--polynomials", "--algebra", "E8", "--level=-10"), 2),
    (("collapse", "--algebra", "E8", "--level=-10", "--super"), 2),
    (("collapse", "--algebra", ""), 2),
    (("collapse", "--polynomials", "--algebra", ""), 2),
    (("collapse", "--algebra", "", "--level=-10"), 2),
    (("singular-verify", "--algebra", "E7", "--family", "ve7", "--n", "40"),
     2),
    (("singular-verify", "--algebra", "D:4", "--family", "w1", "--n", "-5"),
     2),
    (("singular-verify", "--algebra", "D:4", "--family", "w3", "--n", "2"),
     2),
    (("involutions", "--ell", "3", "--count", "--signs"), 2),
    (("involutions", "--ell", "20000"), 0),
    (("involutions", "--ell", "1450", "--count"), 0),
    (("involutions", "--ell", "1000000"), 0),
    (("involutions", "--ell", "1000000", "--count"), 0),
    ((f"{CAP_ENV_VAR}=abc", "involutions", "--ell", "2", "--count",
      "--cap", "2000"), 0),
    ((f"{CAP_ENV_VAR}=abc", "involutions", "--ell", "2", "--count"), 2),
    ((f"{CAP_ENV_VAR}=abc", "involutions", "--ell", "2", "--count",
      "--cap", "999"), 2),
    (("kl", "--algebra", "D:4"), 2),
    (("weights", "--algebra", "D:4", "--mu", "0,0,0,0"), 2),
    (("singular-search", "--algebra", "D:4", "--weight", "1,1,1,1",
      "--degree", "2"), 2),
])
def test_exit_code_sweep(capsys, monkeypatch, argv, exit_code):
    """Every input ends in exit 0, 1 or 2 through main(), never a traceback.
    A leading NAME=value sets that environment variable, as in a shell."""
    while "=" in argv[0]:
        name, _, value = argv[0].partition("=")
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    code, _, err = run(capsys, *argv)
    assert code == exit_code
    assert code == 0 or err.startswith("error: ")


# Exit code, stdout and stderr of each invocation, hashed together.  Every
# verb and format, the capped, exit-1 and usage-error paths; not --help.
OUTPUT_DIGESTS = [
    ("roots --algebra D:4",
     "210dc8fc2ee609d7"),
    ("roots --algebra B:2 --format json",
     "18b044d2859d859a"),
    ("roots --algebra B:2 --format latex",
     "6d25304a73685183"),
    ("roots --algebra B:2 --format csv",
     "7d6dd30fe97c74e9"),
    ("roots --algebra A:2 --realization",
     "c0afcadfbd9a280c"),
    ("roots --algebra E7 --realization --format json",
     "a115b7aae0b15bad"),
    ("roots --algebra sl(x)",
     "a3c39365ae3a2671"),
    ("bracket-audit --algebra B:2",
     "3c76b918bd505a57"),
    ("bracket-audit --algebra A:2 --format json",
     "fd1f776ab1b78d9e"),
    ("bracket-audit --algebra G2 --format latex",
     "09ab3e9d049d8dea"),
    ("bracket-audit --algebra D:6 --samples 200 --seed 3",
     "1705a5f5f815ba92"),
    ("bracket-audit --algebra D:6 --samples 200 --seed 3 --format csv",
     "1705a5f5f815ba92"),
    ("bracket-audit --algebra B:2 --samples 2000 --cap 1000",
     "3c76b918bd505a57"),
    ("bracket-audit --algebra D:6 --samples 0",
     "827c266a31ffa61b"),
    ("singular-verify --algebra D:4 --family w1",
     "10d40abe07352ae6"),
    ("singular-verify --algebra D:4 --family w3 --format json",
     "d4ed298ab312da15"),
    ("singular-verify --algebra D:6 --family wn --n 1",
     "83f25a6566121bc6"),
    ("singular-verify --algebra D:6 --family theta-wn --n 1 --format json",
     "76048e49937bc8a1"),
    ("singular-verify --algebra D:5 --family vn --n 1 --format latex",
     "f5f14691e6d0dc2d"),
    ("singular-verify --algebra B:4 --family w1 --format csv",
     "53a2c974d2f6cddb"),
    ("singular-verify --algebra E7 --family ve7",
     "ef39214705a1148b"),
    ("singular-verify --algebra D:4 --family wn --n 1 --level=-1",
     "15ae40616910e150"),
    ("singular-verify --algebra D:8 --family wn --n 2 --cap 1000",
     "3fec90a3ebbe0729"),
    ("singular-verify --algebra D:8 --family wn --n 2 --cap 1000 --format json",
     "b6ccbf6b4c99cf33"),
    ("singular-verify --algebra D:4 --family ve7",
     "eb0e4641d0ab19ea"),
    ("singular-verify --algebra D:4 --family vn --n 600 --cap 1000",
     "8327de020efbc089"),
    ("singular-verify --algebra D:4 --family bogus",
     "d5d96467d31a20bd"),
    ("singular-search --algebra D:4 --level=-2 --weight 1,1,1,1 --degree 2",
     "57dce8c724c8807f"),
    ("singular-search --algebra D:4 --level=-2 --weight 1,1,1,1 --degree 2 --format json",
     "98aba295425947c0"),
    ("singular-search --algebra D:4 --level=-2 --weight 1,1,1,1 --degree 2 --format csv",
     "57dce8c724c8807f"),
    ("singular-search --algebra D:6 --level=-2 --weight 0,0,0,0,0,0 --degree 5 --cap 1000",
     "4ecd0c8d834c6f1e"),
    ("singular-search --algebra D:6 --level=-2 --weight 0,0,0,0,0,0 --degree 5 --cap 1000 --format json",
     "42968c19d931fa8a"),
    ("singular-search --algebra E8 --level=abc --weight 0,0,0,0,0,0,0,0 --degree 2",
     "b48c3b08e441c1af"),
    ("singular-search --algebra D:4 --level=-2 --weight 1,1,1,1",
     "e796b5c61a82df4d"),
    ("collapse",
     "f28b0f6d9df9c02a"),
    ("collapse --format json",
     "12c774f015246576"),
    ("collapse --format latex",
     "04e0d86a077447ef"),
    ("collapse --format csv",
     "f3e9a3a792359d75"),
    ("collapse --super",
     "f28b0f6d9df9c02a"),
    ("collapse --super --format json",
     "76f1640e4c168bf2"),
    ("collapse --algebra G2",
     "a8db76f4bcfe43c6"),
    ("collapse --algebra E8 --format csv",
     "8bfd9fbebe3b32dc"),
    ("collapse --audit",
     "12f95eda9a7d00ce"),
    ("collapse --audit --format json",
     "f41ae5af86742548"),
    ("collapse --audit --format latex",
     "afb85b5c4e41c31f"),
    ("collapse --audit --format csv",
     "e03e7ad363215966"),
    ("collapse --audit --algebra A:1",
     "87b9edf0055df814"),
    ("collapse --polynomials",
     "b3f0c0ba4a45e5fc"),
    ("collapse --polynomials --super --format json",
     "481089e5bd531c3c"),
    ("collapse --polynomials --format latex",
     "471d5715b8b19726"),
    ("collapse --polynomials --algebra D:5 --format csv",
     "b79db9124f143ae3"),
    ("collapse --algebra E8 --level=-10",
     "c8ecc92757db696b"),
    ("collapse --algebra E8 --level=-10 --format json",
     "fd24d4271c37eafd"),
    ("collapse --algebra E8 --level=-7",
     "64975ab5d4600d0b"),
    ("collapse --algebra A:1",
     "eb10e6bd3a56b217"),
    ("collapse --algebra A:1 --level=-1",
     "282b340a1828413f"),
    ("kl --algebra B:3 --level=-2",
     "779914b32756d570"),
    ("kl --algebra B:3 --level=-2 --format json",
     "fdaafb238b2a8bbc"),
    ("kl --algebra D:6 --level=-4 --quotient vbar --limit 3",
     "e037723f537042c0"),
    ("kl --algebra D:6 --level=-4 --quotient vbar --limit 3 --format latex",
     "e037723f537042c0"),
    ("kl --algebra D:6 --level=-2 --limit 1001 --cap 1000",
     "a01c589979c9c2b9"),
    ("kl --algebra D:6 --level=-4 --quotient vbar --limit 600 --cap 1000 --format json",
     "ff595b6393dc17af"),
    ("kl --algebra D:6 --level=-2 --limit -1",
     "5a6a0b11953d5785"),
    ("kl --algebra D:6 --level=-3",
     "fd2b18a34a2b3349"),
    ("kl --algebra D:6 --level=-2 --quotient bogus",
     "c57b2233034541f9"),
    ("weights --algebra D:4 --mu 1,0,0,0 --level=-2",
     "68e969d0756b7a4a"),
    ("weights --algebra D:4 --mu 1,0,0,0 --level=-2 --format json",
     "1330c25db81a7d58"),
    ("weights --algebra D:4 --mu 1,0,0,0 --level=-6",
     "2b4dff43072e6ad7"),
    ("involutions --ell 3",
     "d57eb7c03f25e69a"),
    ("involutions --ell 3 --signs --format csv",
     "8863ae6e64c9d3f6"),
    ("involutions --ell 2 --signs --format json",
     "3dee6c21be074467"),
    ("involutions --ell 3 --count --format json",
     "f1f36bb0b6321783"),
    ("involutions --ell 2 --format latex",
     "e83a273e1dcb11f2"),
    ("involutions --ell 8",
     "8b40f7e2ff214e6f"),
    ("involutions --ell 8 --format json",
     "0a1b5722669e9e8f"),
    ("involutions --ell 0",
     "32e3e6d8858ab102"),
    ("flubber",
     "bb8555f11b711bce"),
    ("bracket-audit --algebra B:2 --format latex",
     "3c76b918bd505a57"),
    ("singular-search --algebra D:4 --level=-2 --weight 1,1,1,1 --degree 2 --format latex",
     "57dce8c724c8807f"),
    ("weights --algebra D:4 --mu 1,0,0,0 --level=-2 --format csv",
     "68e969d0756b7a4a"),
    ("kl --algebra D:6 --level=-2 --quotient intermediate --limit 4 --format csv",
     "0808d2787b990d94"),
]


def _digest(code, out, err):
    text = f"{code}\0{out}\0{err}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("argv, digest", OUTPUT_DIGESTS)
def test_cli_output_digest(monkeypatch, capsys, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to this width
    assert _digest(*run(capsys, *argv.split())) == digest

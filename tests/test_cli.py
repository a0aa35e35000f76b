"""Tests for the command-line interface and its exit codes."""

import argparse
import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sosconvex.biquadratic import BUILTIN_FILES, corpus_text
from sosconvex.cli import (
    EXIT_ERROR,
    EXIT_FALSE,
    EXIT_TRUE,
    EXIT_UNKNOWN,
    main,
    parse_poly_expression,
)
from sosconvex.forms import Form, FormatError, form_to_text


@pytest.fixture
def b_file(tmp_path):
    path = tmp_path / "b.biq"
    assert main(["builtin", "b_thm22", str(path)]) == EXIT_TRUE
    return str(path)


@pytest.fixture
def b_form_file(tmp_path):
    from sosconvex.biquadratic import builtin

    path = tmp_path / "b.form"
    path.write_text(form_to_text(builtin("b_thm22").to_form()))
    return str(path)


def write_x4_sum(tmp_path):
    p = sum((Form.variable(3, i) ** 4 for i in (2, 3)), Form.variable(3, 1) ** 4)
    path = tmp_path / "x4sum.form"
    path.write_text(form_to_text(p))
    return str(path)


# a face query at the alpha5 bound that runs the zero search
FACE_ZERO = ["face", "--a", "1", "--b", "1", "--alphas", "1", "1", "1", "1", "-1", "--bound", "--zero"]


def z_lines(path):
    """The lines of a certificate file's Z: section."""
    lines = Path(path).read_text().splitlines()
    return lines[lines.index("Z:") + 1 : lines.index("Q:")]


def negative_pairing(out):
    line = next(ln for ln in out.splitlines() if ln.startswith("refuted:"))
    return F(line.rpartition("= ")[2]) < 0


class TestDims:
    def test_ternary_counts(self, capsys):
        assert main(["dims", "3"]) == EXIT_TRUE
        assert capsys.readouterr().out.strip() == "36 21 15"

    def test_bad_n(self):
        assert main(["dims", "0"]) == EXIT_ERROR


class TestParser:
    def test_built_once_and_unchanged_by_a_parse_error(self, capsys, monkeypatch):
        assert main(["dims", "3"]) == EXIT_TRUE
        first = capsys.readouterr()
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["dims"]) == EXIT_ERROR
        assert "usage:" in capsys.readouterr().err
        assert main(["dims", "3"]) == EXIT_TRUE
        assert capsys.readouterr() == first
        assert built == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "{b}", "--sos", "--seed", "1"],
            ["check", "{b}", "--sos", "--max-iter", "2000"],
            ["check", "{b}", "--sos", "--restarts", "1"],
            FACE_ZERO + ["--zero-tol", "1e-6"],
            FACE_ZERO + ["--dps", "40"],
        ],
        ids=["seed", "max-iter", "restarts", "zero-tol", "dps"],
    )
    def test_removed_setting_is_unrecognized(self, b_file, argv, capsys):
        # the search and the zero search run with fixed constants
        assert main([arg.format(b=b_file) for arg in argv]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err


class TestModuleEntry:
    def test_python_dash_m_runs_main(self):
        paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        run = subprocess.run(
            [sys.executable, "-m", "sosconvex.cli", "dims", "3"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (run.returncode, run.stdout.strip()) == (EXIT_TRUE, "36 21 15")

    def test_mpmath_is_imported_by_the_zero_search_alone(self):
        # the search and verify paths never need mpmath, so importing the CLI
        # leaves it out; face --zero imports it when it runs
        paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        script = (
            "import sys\n"
            "from sosconvex.cli import main\n"
            "assert 'mpmath' not in sys.modules\n"
            "code = main(['face', '--a', '1', '--b', '1', '--alphas', '1', '1', '1', '1', '-1',"
            " '--bound', '--zero'])\n"
            "assert 'mpmath' in sys.modules\n"
            "sys.exit(code)\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert run.returncode == EXIT_TRUE, run.stderr
        assert "zero_x:" in run.stdout and "residual:" in run.stdout

    def test_numpy_is_imported_by_the_search_alone(self, tmp_path):
        # verify, face, dims and builtin run on exact arithmetic; only check
        # searches numerically
        paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        b, c = str(tmp_path / "b.biq"), str(tmp_path / "q.cert")
        face = ["face", "--a", "1", "--b", "1", "--alphas", "1", "1", "1", "1", "-1", "--zero"]
        exact = [["builtin", "b_thm22", b], ["builtin", "q22_cert", c], ["verify", b, c],
                 ["dims", "3"], face]
        script = (
            "import sys\n"
            "from sosconvex.cli import main\n"
            f"assert [main(argv) for argv in {exact!r}] == [0] * 5\n"
            "assert 'numpy' not in sys.modules\n"
            f"assert main({['check', b, '--sos']!r}) == 1\n"
            "assert 'numpy' in sys.modules\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert run.returncode == 0, run.stderr


class TestBuiltin:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        from sosconvex.biquadratic import corpus_text

        out = tmp_path / "q22.cert"
        assert main(["builtin", "q22_cert", str(out)]) == EXIT_TRUE
        assert out.read_text() == corpus_text("q22_cert.cert")

    def test_unknown_name(self, tmp_path):
        assert main(["builtin", "nope", str(tmp_path / "x")]) == EXIT_ERROR

    def test_unwritable_output_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "absent" / "b.biq"
        assert main(["builtin", "b_thm22", str(out)]) == EXIT_ERROR
        assert f"cannot write {out}" in capsys.readouterr().err


class TestVerify:
    def test_gram_certificate_accepted(self, tmp_path, b_file):
        cert = tmp_path / "q22.cert"
        main(["builtin", "q22_cert", str(cert)])
        assert main(["verify", b_file, str(cert)]) == EXIT_TRUE

    def test_tampered_certificate_rejected(self, tmp_path, b_file, capsys):
        cert = tmp_path / "q22.cert"
        main(["builtin", "q22_cert", str(cert)])
        text = cert.read_text()
        assert "4608/1" in text
        cert.write_text(text.replace("4608/1", "4609/1", 1))
        assert main(["verify", b_file, str(cert)]) == EXIT_FALSE
        assert "mismatch" in capsys.readouterr().out

    def test_dual_refutation_exit_one(self, tmp_path, b_file):
        dual = tmp_path / "c.dcert"
        main(["builtin", "c_dual", str(dual)])
        assert main(["verify", b_file, str(dual)]) == EXIT_FALSE

    def test_dual_refutation_of_form_file_exit_one(self, tmp_path, b_form_file):
        dual = tmp_path / "c.dcert"
        main(["builtin", "c_dual", str(dual)])
        assert main(["verify", b_form_file, str(dual)]) == EXIT_FALSE

    def test_rejected_refutation_exit_two(self, tmp_path):
        from sosconvex.biquadratic import BiquadraticForm, biquadratic_to_text, builtin

        dual = tmp_path / "c.dcert"
        main(["builtin", "c_dual", str(dual)])
        # the functional pairs positively with -b, so the refutation fails
        target = tmp_path / "negb.biq"
        negb = builtin("b_thm22").to_form().scale(F(-1))
        target.write_text(biquadratic_to_text(BiquadraticForm.from_form(negb, 3)))
        assert main(["verify", str(target), str(dual)]) == EXIT_UNKNOWN

    @pytest.mark.parametrize("kind", ["biq", "form"])
    def test_hessian_form_dual_refutes_against_either_target(self, tmp_path, kind, capsys):
        # a dual of y^T H_p(x) y, over 2n variables, refutes sos-convexity
        # whether the target file holds the Hessian biquadratic or p itself
        from sosconvex.biquadratic import biquadratic_to_text, hessian_biquadratic
        from sosconvex.certificates import bidegree_basis
        from sosconvex.search import check_sos_convexity

        p = parse_poly_expression("x1^4-6*x1^2*x2^2+x2^4+x3^4", 3)
        outcome = check_sos_convexity(p)
        assert outcome.status == "Refuted"
        values = dict(zip(outcome.dual.monomials, outcome.dual.c))
        dual = tmp_path / "d.dcert"
        lines = [str(values.get(m, 0)) for m in bidegree_basis(3, 2, 2)]
        dual.write_text("\n".join(["ORDER: lex", "C:", *lines]) + "\n")
        target = tmp_path / f"p.{kind}"
        hessian = biquadratic_to_text(hessian_biquadratic(p))
        target.write_text(hessian if kind == "biq" else form_to_text(p))
        assert main(["verify", str(target), str(dual)]) == EXIT_FALSE
        pairing = outcome.refutation.pairing_value
        assert pairing < 0
        assert capsys.readouterr().out == f"not SOS, pairing = {pairing}\n"

    @pytest.mark.parametrize("token", ["nan", "1/0", "x"])
    def test_bad_rational_in_certificate_is_an_input_error(self, tmp_path, b_file, token,
                                                           capsys):
        cert = tmp_path / "q22.cert"
        main(["builtin", "q22_cert", str(cert)])
        cert.write_text(cert.read_text().replace("4608/1", token, 1))
        assert main(["verify", b_file, str(cert)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: bad Q row")

    def test_missing_file(self, tmp_path, b_file):
        assert main(["verify", b_file, str(tmp_path / "absent")]) == EXIT_ERROR


CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"
# every shipped file and every file of the benchmark's verify corpus
CORPUS_TEXTS = [corpus_text(name) for name in sorted(BUILTIN_FILES.values())] + [
    path.read_text() for path in sorted((CORPUS / "verify").iterdir())
]
CORPUS_LINES = sorted({line for text in CORPUS_TEXTS for line in text.splitlines()})
# the (target, witness) pairs of the benchmark's verify calls
VERIFY_PAIRS = [
    tuple((CORPUS / rel).read_text() for rel in entry["argv"][1:])
    for entry in json.loads((CORPUS / "manifest.json").read_text())["workloads"]["verify"]
    if entry["argv"][0] == "verify"
]


def mutate(draw, text):
    """text after up to three line-level edits: a line deleted, repeated,
    swapped with another, replaced by or inserted from any corpus file."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["delete", "repeat", "swap", "replace", "insert"]))
        if op == "insert" or not lines:
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(CORPUS_LINES)))
            continue
        i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
        if op == "delete":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[i] = draw(st.sampled_from(CORPUS_LINES))
    return "".join(line + "\n" for line in lines)


CHECK_MODES = [["--sos"], ["--sos-convex"], ["--nonneg-mult", "x1^2"]]
# coefficients of generated check targets; 10^400 is beyond float range
COEFFICIENTS = [F(0), F(1), F(-1), F(2), F(1, 2), F(-3), F(10**400)]


@st.composite
def check_targets(draw):
    """A form (n <= 3 variables, degree 0, 2 or 4) or a biq (n <= 3) file
    text, with up to six terms whose coefficients come from COEFFICIENTS."""
    n = draw(st.integers(1, 3))
    coefficient = st.sampled_from(COEFFICIENTS)
    if draw(st.booleans()):
        r = range(1, n + 1)
        keys = [(i, j, k, l) for i in r for j in r for k in r for l in r if i <= j and k <= l]
        header, terms = f"biq n={n}", [" ".join(map(str, key)) for key in keys]
    else:
        d = draw(st.sampled_from([0, 2, 4]))
        monomials = [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]
        header, terms = f"form n={n} d={d}", [" ".join(map(str, e)) for e in monomials]
    chosen = draw(st.lists(st.sampled_from(terms), max_size=6, unique=True))
    return "".join(f"{line}\n" for line in [header] + [f"{draw(coefficient)} {t}" for t in chosen])


@st.composite
def mutated_verify_files(draw):
    """A benchmark verify pair or any two corpus files, each mutated."""
    files = st.sampled_from(CORPUS_TEXTS)
    pair = draw(st.one_of(st.sampled_from(VERIFY_PAIRS), st.tuples(files, files)))
    return tuple(mutate(draw, text) for text in pair)


class TestMalformedInput:
    """Any file pair gets an exit code; nothing escapes main."""

    @settings(derandomize=True, deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutated_verify_files())
    def test_mutated_files_get_an_exit_code(self, tmp_path, files):
        for name, text in zip("tw", files):
            (tmp_path / name).write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["verify", str(tmp_path / "t"), str(tmp_path / "w")])
        assert code in (EXIT_TRUE, EXIT_FALSE, EXIT_UNKNOWN, EXIT_ERROR)

    @settings(derandomize=True, deadline=None, max_examples=100,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(check_targets())
    def test_checked_targets_get_an_exit_code(self, tmp_path, text):
        # every certificate check writes verifies
        target, cert = tmp_path / "t", tmp_path / "t.cert"
        target.write_text(text)
        for mode in CHECK_MODES:
            cert.unlink(missing_ok=True)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(["check", str(target), *mode, "--out", str(cert)])
                assert code in (EXIT_TRUE, EXIT_FALSE, EXIT_UNKNOWN, EXIT_ERROR)
                if code == EXIT_TRUE:
                    assert main(["verify", str(target), str(cert)]) == EXIT_TRUE

    def test_certificate_sections_in_any_order(self, tmp_path, b_file):
        text = corpus_text("q22_cert.cert")
        z, q = text.split("Q:")
        assert z.startswith("Z:")
        cert = tmp_path / "q_first.cert"
        cert.write_text("Q:" + q.replace("MULTIPLIER:", z + "MULTIPLIER:"))
        assert cert.read_text().startswith("Q:")
        assert main(["verify", b_file, str(cert)]) == EXIT_TRUE

    def test_certificate_as_target(self, tmp_path, capsys):
        cert = tmp_path / "q22.cert"
        main(["builtin", "q22_cert", str(cert)])
        assert main(["verify", str(cert), str(cert)]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: unrecognized header 'z:' (expected 'form' or 'biq')\n"

    def test_misspelled_target_header(self, tmp_path, b_file, capsys):
        target = tmp_path / "b.bq"
        target.write_text(Path(b_file).read_text().replace("biq", "bq", 1))
        assert main(["check", str(target), "--sos"]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: unrecognized header 'bq' (expected 'form' or 'biq')\n"

    def test_form_as_witness(self, b_file, b_form_file, capsys):
        # a witness that is not a dual is read as a certificate
        assert main(["verify", b_file, b_form_file]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: content outside any section: 'form ")

    @pytest.mark.parametrize("argv", [["verify", "{big}", "{cert}"], ["verify", "{b}", "{big}"],
                                      ["check", "{big}", "--sos"]])
    def test_polymat_file_refused_before_parsing(self, tmp_path, b_file, argv, monkeypatch):
        # its header alone would have the parser build a dim x dim grid
        from sosconvex import biquadratic

        def unwanted(text):
            raise AssertionError("polymat parser ran")

        monkeypatch.setattr(biquadratic, "polymatrix_from_text", unwanted)
        big = tmp_path / "big.polymat"
        big.write_text("polymat n=1 dim=100000 d=0\n")
        cert = tmp_path / "q22.cert"
        main(["builtin", "q22_cert", str(cert)])
        files = {"big": big, "cert": cert, "b": b_file}
        assert main([arg.format(**files) for arg in argv]) == EXIT_ERROR

    def test_repeated_q_section_is_an_input_error(self, tmp_path, b_file, capsys):
        cert = tmp_path / "q22.cert"
        main(["builtin", "q22_cert", str(cert)])
        text = cert.read_text()
        twice = tmp_path / "twice.cert"
        twice.write_text(text + text[text.index("Q:"):])
        assert main(["verify", b_file, str(twice)]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: duplicate section: 'Q:'\n"

    def test_empty_witness(self, tmp_path, b_file, capsys):
        empty = tmp_path / "empty.cert"
        empty.write_text("# no content\n\n")
        assert main(["verify", b_file, str(empty)]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: missing section Z:\n"


class TestCheck:
    def test_sos_convex_writes_verifiable_certificate(self, tmp_path):
        target = write_x4_sum(tmp_path)
        out = tmp_path / "out.cert"
        code = main(["check", target, "--sos-convex", "--out", str(out)])
        assert code == EXIT_TRUE
        assert main(["verify", target, str(out)]) == EXIT_TRUE

    def test_unwritable_certificate_path_is_an_input_error(self, tmp_path, capsys):
        target = write_x4_sum(tmp_path)
        out = tmp_path / "absent" / "q.cert"
        assert main(["check", target, "--sos-convex", "--out", str(out)]) == EXIT_ERROR
        assert f"cannot write {out}" in capsys.readouterr().err

    def test_builtin_b_refuted(self, b_file, capsys):
        assert main(["check", b_file, "--sos"]) == EXIT_FALSE
        assert "Refuted" in capsys.readouterr().out

    def test_refuted_pairing_needs_no_second_exact_check(self, b_file, capsys, monkeypatch):
        # the search verified the dual already; the CLI prints that pairing
        from sosconvex import cli, search
        from sosconvex.biquadratic import builtin

        calls = []
        searched = []  # (outcome, verify_refutation calls so far) per search
        verify = search.verify_refutation
        check = search.check_sos

        def counted(*args):
            calls.append(1)
            return verify(*args)

        def checked(*args, **kwargs):
            outcome = check(*args, **kwargs)
            searched.append((outcome, len(calls)))
            return outcome

        monkeypatch.setattr(search, "verify_refutation", counted)
        monkeypatch.setattr(cli, "verify_refutation", counted)
        monkeypatch.setattr(search, "check_sos", checked)
        assert main(["check", b_file, "--sos"]) == EXIT_FALSE
        [(outcome, by_search)] = searched
        assert by_search >= 1 and len(calls) == by_search
        line = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("refuted:"))
        value = verify(outcome.dual, builtin("b_thm22")).pairing_value
        assert line == f"refuted: not SOS, pairing = {value}"

    @pytest.mark.parametrize(
        "lines, mode",
        [
            (["form n=2 d=2", "1 1 1"], "--sos"),
            (["form n=2 d=4", "1 3 1"], "--sos"),
            (["form n=3 d=4", "1 2 1 1"], "--sos-convex"),
        ],
        ids=["x1x2", "x1^3x2", "x1^2x2x3"],
    )
    def test_empty_pruned_basis_refuted(self, tmp_path, capsys, lines, mode):
        path = tmp_path / "t.form"
        path.write_text("\n".join(lines) + "\n")
        assert main(["check", str(path), mode]) == EXIT_FALSE
        assert negative_pairing(capsys.readouterr().out)

    @pytest.mark.parametrize("mode", ["--sos", "--sos-convex"])
    def test_zero_form_certified_and_verified(self, tmp_path, capsys, mode):
        path, cert = tmp_path / "zero.form", tmp_path / "zero.cert"
        path.write_text("form n=3 d=4\n")
        assert main(["check", str(path), mode, "--out", str(cert)]) == EXIT_TRUE
        assert "status: ExactCertificate" in capsys.readouterr().out
        assert main(["verify", str(path), str(cert)]) == EXIT_TRUE

    def test_form_file_of_b_refuted_with_pairing(self, b_form_file, capsys):
        assert main(["check", b_form_file, "--sos"]) == EXIT_FALSE
        assert negative_pairing(capsys.readouterr().out)

    def test_nonconvex_quartic_refuted_with_pairing(self, tmp_path, capsys):
        target = tmp_path / "quartic.form"
        p = Form(3, 4, {(4, 0, 0): F(1), (2, 2, 0): F(-6), (0, 4, 0): F(1), (0, 0, 4): F(1)})
        target.write_text(form_to_text(p))
        assert main(["check", str(target), "--sos-convex"]) == EXIT_FALSE
        assert negative_pairing(capsys.readouterr().out)

    def test_nonconvex_sextic_refuted_with_pairing(self, tmp_path, capsys):
        target = tmp_path / "sextic.form"
        target.write_text(form_to_text(parse_poly_expression("x1^6+x2^6-4*x1^2*x2^4", 2)))
        assert main(["check", str(target), "--sos-convex"]) == EXIT_FALSE
        assert negative_pairing(capsys.readouterr().out)

    def test_face_form_below_the_bound_refuted_at_a_witness_point(self, capsys):
        corpus = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
        target = corpus / "refute" / "face_T11_below.form"
        assert main(["check", str(target), "--sos-convex"]) == EXIT_FALSE
        out = capsys.readouterr().out
        assert negative_pairing(out)
        line = next(ln for ln in out.splitlines() if ln.startswith("diagnostics:"))
        value, _, point = line.removeprefix("diagnostics: y^T H(x) y = ").partition(" < 0 at x = (")
        assert F(value) < 0
        assert "), y = (" in point and point.endswith("), so the form is not convex")

    def test_choi_refuted_with_pairing(self, tmp_path, capsys):
        target = tmp_path / "choi.biq"
        assert main(["builtin", "choi_biquadratic", str(target)]) == EXIT_TRUE
        assert main(["check", str(target), "--sos"]) == EXIT_FALSE
        assert negative_pairing(capsys.readouterr().out)

    def test_multiplier_search(self, tmp_path, b_file):
        out = tmp_path / "mult.cert"
        code = main(
            ["check", b_file, "--nonneg-mult", "x1^2+x2^2", "--out", str(out)]
        )
        assert code == EXIT_TRUE
        assert main(["verify", b_file, str(out)]) == EXIT_TRUE

    @pytest.mark.parametrize("mult", ["x1^2-x2^2", "0*x1^2"])
    def test_multiplier_not_an_even_power_sum_rejected(self, b_file, mult, capsys):
        assert main(["check", b_file, "--nonneg-mult", mult]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: multiplier must be a sum of even monomial powers")

    def test_odd_multiplier_degree_rejected(self, b_file):
        assert main(["check", b_file, "--nonneg-mult", "x1"]) == EXIT_ERROR

    @pytest.mark.parametrize("mode", ["--sos-convex", "--sos"])
    def test_odd_degree_form_rejected(self, tmp_path, mode, capsys):
        target = tmp_path / "cubic.form"
        target.write_text(form_to_text(parse_poly_expression("x1^3+x2^3", 2)))
        assert main(["check", str(target), mode]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("tol", ["nan"])
    def test_non_finite_tolerance_rejected(self, b_file, tol, capsys):
        # the tolerance follows from the target; there is no --tol to set
        assert main(["check", b_file, "--sos", "--tol", tol]) == EXIT_ERROR
        assert "unrecognized arguments: --tol nan" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", CHECK_MODES, ids=["sos", "sos-convex", "nonneg-mult"])
    def test_coefficient_beyond_float_range_is_an_input_error(self, tmp_path, mode, capsys):
        target = tmp_path / "big.form"
        target.write_text(f"form n=2 d=2\n{10**400} 2 0\n1 0 2\n")
        assert main(["check", str(target), *mode]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the coefficient of ")
        assert captured.err.endswith(" is beyond float range\n") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("mode", CHECK_MODES, ids=["sos", "sos-convex", "nonneg-mult"])
    def test_coefficient_within_float_range_certifies(self, tmp_path, mode):
        target, cert = tmp_path / "big.form", tmp_path / "big.cert"
        target.write_text(f"form n=2 d=2\n{10**300} 2 0\n1 0 2\n")
        assert main(["check", str(target), *mode, "--out", str(cert)]) == EXIT_TRUE
        assert main(["verify", str(target), str(cert)]) == EXIT_TRUE

    @pytest.mark.parametrize("mode", CHECK_MODES, ids=["sos", "sos-convex", "nonneg-mult"])
    def test_rounding_beyond_float_range_is_an_input_error(self, tmp_path, mode, capsys):
        # 10^308 is a float, but a Gram entry near it times a denominator is not
        target = tmp_path / "big.form"
        target.write_text(f"form n=2 d=2\n{10**308} 2 0\n1 0 2\n")
        assert main(["check", str(target), *mode]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.endswith(" is beyond float range\n") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("mode", CHECK_MODES, ids=["sos", "sos-convex", "nonneg-mult"])
    def test_coefficient_near_the_float_maximum_certifies(self, tmp_path, mode):
        target, cert = tmp_path / "big.form", tmp_path / "big.cert"
        target.write_text(f"form n=2 d=2\n{17 * 10**306} 2 0\n1 0 2\n")
        assert main(["check", str(target), *mode, "--out", str(cert)]) == EXIT_TRUE
        assert main(["verify", str(target), str(cert)]) == EXIT_TRUE

    @pytest.mark.parametrize("mode", CHECK_MODES, ids=["sos", "sos-convex", "nonneg-mult"])
    def test_coefficient_with_a_huge_denominator_certifies(self, tmp_path, mode):
        # 3^700 is beyond float range, so the Gram entries round on the grids
        # 1/D, not 1/(D 3^700): no grid denominator overflows
        target, cert = tmp_path / "tiny.form", tmp_path / "tiny.cert"
        target.write_text(f"form n=2 d=2\n1 2 0\n1/{3**700} 0 2\n")
        assert main(["check", str(target), *mode, "--out", str(cert)]) == EXIT_TRUE
        assert main(["verify", str(target), str(cert)]) == EXIT_TRUE

    @pytest.mark.parametrize("body", ["form n=1 d=0\n-3 0\n", "form n=1 d=2\n-1 2\n"],
                             ids=["-3", "-x1^2"])
    def test_negative_square_under_a_multiplier_stalls_without_a_search(
        self, tmp_path, body, capsys, monkeypatch
    ):
        # only (x1, x1) reaches the square x1^2 of the product, whose
        # coefficient is negative: no Gram matrix is PSD
        from sosconvex import search

        monkeypatch.setattr(search, "douglas_rachford", lambda pz: pytest.fail("searched"))
        target = tmp_path / "neg.form"
        target.write_text(body)
        assert main(["check", str(target), "--nonneg-mult", "x1^2"]) == EXIT_UNKNOWN
        assert capsys.readouterr().out.startswith("status: Stalled\n")

    def test_zero_denominator_multiplier_rejected(self, b_file, capsys):
        assert main(["check", b_file, "--nonneg-mult", "1/0*x1^2"]) == EXIT_ERROR
        assert "bad rational" in capsys.readouterr().err


class TestTargetBlock:
    """A biq file is read once into its Form and its block size n. The block
    splits each Z: line of a certificate into x | y, as the number of
    variables of p does for an sos-convexity certificate, and only a form
    file is read as a Hessian target when the witness has twice its
    variables."""

    def test_biq_target_is_never_read_as_a_hessian(self, b_file, capsys):
        # pow4_n6.cert is over 12 variables, twice the 6 of b_thm22: against
        # a form file of 6 variables it would be checked against a Hessian
        cert = Path(__file__).parents[1] / "perfbench" / "corpus" / "verify" / "pow4_n6.cert"
        assert main(["verify", b_file, str(cert)]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: multiplier and target variable counts disagree\n"

    def test_sos_convex_needs_a_plain_form(self, b_file, capsys):
        assert main(["check", b_file, "--sos-convex"]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: --sos-convex needs a plain form\n"

    def test_multiplier_certificate_is_split_at_the_block(self, tmp_path, b_file):
        out = tmp_path / "mult.cert"
        argv = ["check", b_file, "--nonneg-mult", "x1^2+x2^2", "--out", str(out)]
        assert main(argv) == EXIT_TRUE
        z = z_lines(out)
        assert z and all(re.fullmatch(r"\d+ \d+ \d+ \| \d+ \d+ \d+", line) for line in z)

    def test_sos_convex_certificate_is_split_at_the_variable_count(self, tmp_path):
        target = tmp_path / "p.form"
        target.write_text(form_to_text(parse_poly_expression("x1^4+x2^4", 2)))
        out = tmp_path / "p.cert"
        assert main(["check", str(target), "--sos-convex", "--out", str(out)]) == EXIT_TRUE
        z = z_lines(out)
        assert z and all(re.fullmatch(r"\d+ \d+ \| \d+ \d+", line) for line in z)


class TestFace:
    def test_member_with_bound_and_zero(self, capsys):
        code = main(
            ["face", "--a", "1", "--b", "1", "--alphas", "1", "1", "1", "1", "-1",
             "--bound", "--zero"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_TRUE
        assert "bound: -1/1" in out
        assert "membership: true" in out
        assert "det_closed: 0/1" in out and "det_brute: 0/1" in out
        assert "zero_x:" in out and "residual:" in out

    def test_non_member_exit_one(self, capsys):
        code = main(["face", "--a", "1", "--b", "1", "--alphas", "1", "1", "1", "1", "-2"])
        assert code == EXIT_FALSE
        assert "membership: false" in capsys.readouterr().out

    def test_zero_requires_bound_value(self):
        code = main(
            ["face", "--a", "1", "--b", "1", "--alphas", "1", "1", "1", "1", "-1/2",
             "--zero"]
        )
        assert code == EXIT_ERROR

    def test_negative_rational_alpha(self, capsys):
        code = main(
            ["face", "--a", "1", "--b", "1", "--alphas", "1", "1", "1", "1", "-4/7",
             "--bound"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_TRUE
        assert "alphas: 1/1 1/1 1/1 1/1 -4/7" in out
        assert "bound: -1/1" in out

    def test_degenerate_params(self):
        code = main(["face", "--a", "0", "--b", "1", "--alphas", "1", "1", "1", "1", "0"])
        assert code == EXIT_ERROR

    def test_bad_rational(self):
        code = main(["face", "--a", "x", "--b", "1", "--alphas", "1", "1", "1", "1", "0"])
        assert code == EXIT_ERROR


# stdout of face queries of the benchmark corpus (perfbench/corpus, verify
# workload), byte for byte: the exact lines, the zero's coordinates and the
# residual, which sums h_p's terms in mpmath in a fixed order
FACE_OUTPUTS = [
    (
        ["--a", "1", "--b", "1", "--alphas", "1/1", "6/5", "3/5", "3/2", "-0.96", "--bound", "--zero"],
        EXIT_TRUE,
        "alphas: 1/1 6/5 3/5 3/2 -24/25\na: 1/1\nb: 1/1\nbound: -24/25\nmembership: true\n"
        "det_closed: 0/1\ndet_brute: 0/1\n"
        "zero_x: 0.431230803364 0.683593491545 0.588846272423\n"
        "zero_y: 0.267743944687 -0.140750604211 -0.953153947428\nresidual: 0.000e+00\n",
    ),
    (
        ["--a", "1", "--b", "1", "--alphas", "1/1", "1/2", "1/1", "7/4", "-0.875", "--bound", "--zero"],
        EXIT_TRUE,
        "alphas: 1/1 1/2 1/1 7/4 -7/8\na: 1/1\nb: 1/1\nbound: -7/8\nmembership: true\n"
        "det_closed: 0/1\ndet_brute: 0/1\n"
        "zero_x: 0.82666700861 -0.323803271278 -0.460188111955\n"
        "zero_y: 0.183282664288 0.935838178651 0.301022205745\nresidual: 1.972e-31\n",
    ),
    (
        ["--a", "2", "--b", "3", "--alphas", "5/1", "8/1", "1/1", "1/1", "-1.25", "--bound", "--zero"],
        EXIT_TRUE,
        "alphas: 5/1 8/1 1/1 1/1 -5/4\na: 2/1\nb: 3/1\nbound: -5/4\nmembership: true\n"
        "det_closed: 0/1\ndet_brute: 0/1\n"
        "zero_x: 0.88787545703 -0.0370157116592 -0.458592422413\n"
        "zero_y: 0.143760477512 0.957862020328 0.248662974965\nresidual: 3.081e-32\n",
    ),
    (
        ["--a", "2", "--b", "3", "--alphas", "3/2", "5/2", "1/2", "2/1", "-0.625", "--bound", "--zero"],
        EXIT_TRUE,
        "alphas: 3/2 5/2 1/2 2/1 -5/8\na: 2/1\nb: 3/1\nbound: -5/8\nmembership: true\n"
        "det_closed: 0/1\ndet_brute: 0/1\n"
        "zero_x: 0.715872080512 -0.0606674285224 -0.69559084774\n"
        "zero_y: 0.289633043101 0.911374089633 0.292420876631\nresidual: 9.553e-30\n",
    ),
    (
        ["--a", "1", "--b", "1", "--alphas", "1/1", "6/5", "3/5", "3/2", "-0.48"],
        EXIT_TRUE,
        "alphas: 1/1 6/5 3/5 3/2 -12/25\na: 1/1\nb: 1/1\nmembership: true\n"
        "det_closed: 13436928/625\ndet_brute: 13436928/625\n",
    ),
    (
        ["--a", "2", "--b", "3", "--alphas", "3/2", "5/2", "1/2", "2/1", "-0.63125", "--bound"],
        EXIT_FALSE,
        "alphas: 3/2 5/2 1/2 2/1 -101/160\na: 2/1\nb: 3/1\nbound: -5/8\nmembership: false\n"
        "det_closed: -49086/25\ndet_brute: -49086/25\n",
    ),
]


class TestFaceOutput:
    @pytest.mark.parametrize("args, code, stdout", FACE_OUTPUTS)
    def test_corpus_queries_print_the_same_bytes(self, args, code, stdout, capsys):
        assert main(["face", *args]) == code
        assert capsys.readouterr().out == stdout

    @pytest.mark.parametrize(
        "args",
        [["--alphas", "1", "1", "1", "1", "-1/2", "--zero"]],
        ids=["alpha5-off-the-bound"],
    )
    def test_zero_preconditions_fail_before_any_output(self, args, capsys):
        assert main(["face", "--a", "1", "--b", "1", *args]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


class TestExpressionParser:
    def test_simple_quadratic(self):
        f = parse_poly_expression("x1^2+x2^2", 3)
        assert f == Form(3, 2, {(2, 0, 0): F(1), (0, 2, 0): F(1)})

    def test_coefficients_and_products(self):
        f = parse_poly_expression("3/2 x1*x2 - x2^2", 2)
        assert f == Form(2, 2, {(1, 1): F(3, 2), (0, 2): F(-1)})

    def test_y_variables_map_into_block(self):
        f = parse_poly_expression("y1^2", 6, block=3)
        assert f == Form(6, 2, {(0, 0, 0, 2, 0, 0): F(1)})

    def test_y_without_block_rejected(self):
        with pytest.raises(FormatError):
            parse_poly_expression("y1^2", 3)

    def test_inhomogeneous_rejected(self):
        with pytest.raises(FormatError):
            parse_poly_expression("x1^2+x2", 2)

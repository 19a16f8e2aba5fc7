"""Run one benchmark op in a forked child of the process that imported susyxyz.

Forking after the import gives every op the state of a fresh ``susy-xyz``
process (empty ``build_sector_basis`` cache, no warm results) without paying
the interpreter start and import again; those are measured as set-up time.
The child runs the op, sends a JSON result through a pipe and exits; the
parent times the op from fork to reaping and takes its CPU time and peak
resident memory from ``wait4``.
"""

from __future__ import annotations

import io
import json
import os
import select
import signal
import sys
import time
import traceback

from checks import OMEGAS

U_PROBE = 0.47


def bethe_scan(op):
    """Find Bethe roots at one omega and test each root set, as
    scripts/bethe_root_scan.py does.

    For every root set: the roots, the assembled eigenvector's
    residual against the transfer matrix and the T-Q eigenvalue (None when the
    vector vanishes), and, where the momentum sector allows the u = pi
    extension, the mismatch |T'(u) + T(u)/h(u)| of the extended eigenvalue.
    """
    import numpy as np

    from susyxyz import eightvertex as ev
    from susyxyz.elliptic import ThetaContext, h
    from susyxyz.errors import DomainError

    ctx = ThetaContext(nome=op["nome"], s=op["s"], t=op["t"])
    records = []
    for n, m in op["cases"]:
        transfer = ev.transfer_matrix(n, U_PROBE, ctx)
        for br in ev.find_bethe_roots(n, m, OMEGAS[op["omega"]], ctx):
            rec = {
                "n": n, "m": m,
                "roots": [[u.real, u.imag] for u in map(complex, br.roots)],
                "vec_resid": None, "ext_resid": None,
            }
            vec = ev.bethe_vector(br, ctx)
            norm = np.linalg.norm(vec)
            lam = ev.tq_eigenvalue(U_PROBE, br, ctx)
            if norm > 1e-7:
                vec = vec / norm
                rec["vec_resid"] = float(
                    np.linalg.norm(transfer @ vec - lam * vec) / max(1.0, abs(lam)))
            try:
                ext = ev.extend_by_pi(br, ctx)
            except DomainError:
                pass
            else:
                lam_ext = ev.tq_eigenvalue(U_PROBE, ext, ctx)
                rec["ext_resid"] = float(
                    abs(lam_ext + lam / h(U_PROBE, ctx)) / max(1.0, abs(lam_ext)))
            records.append(rec)
    return records


def _run_in_child(op, traced):
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer().install()
    result = {"exit": 0}
    try:
        if op["kind"] == "bethe":
            result["bethe"] = bethe_scan(op)
        else:
            from susyxyz import cli

            out, err = io.StringIO(), io.StringIO()
            sys.stdout, sys.stderr = out, err
            try:
                result["exit"] = cli.main(op["argv"])
            except SystemExit as exc:  # argparse usage errors
                result["exit"] = exc.code if isinstance(exc.code, int) else 2
            finally:
                sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
            result["stdout"] = out.getvalue()
            result["stderr"] = err.getvalue()[-4000:]
    except Exception:  # noqa: BLE001 - any exception of the program fails the op
        result = {"exit": None, "error": traceback.format_exc()}
    if tracer is not None:
        result["trace"] = tracer.report(len(result.get("stdout", "").encode()))
    return result


def run_op(op, traced, timeout):
    """Run ``op`` in a forked child; return its result with timing and usage.

    The result holds the child's payload (exit code, stdout, Bethe records or
    error, and the trace report when ``traced``) plus ``latency_s``, ``cpu_s``
    (user + system of the child and its threads) and ``maxrss_mb``. A child
    still running after ``timeout`` seconds is killed and reported as an error.
    """
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child: never return into the caller's code
        code = 1
        try:
            os.close(read_fd)
            data = memoryview(json.dumps(_run_in_child(op, traced)).encode())
            while data:
                data = data[os.write(write_fd, data):]
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    chunks, timed_out = [], False
    try:
        while True:
            remaining = start + timeout - time.perf_counter()
            if remaining <= 0 or not select.select([read_fd], [], [], remaining)[0]:
                os.kill(pid, signal.SIGKILL)
                timed_out = True
                break
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    except BaseException:  # interrupted: do not wait for the op to finish
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(read_fd)
        _, status, usage = os.wait4(pid, 0)
    latency = time.perf_counter() - start
    if timed_out:
        result = {"exit": None, "error": f"killed after {timeout:.0f} s", "killed": True}
    elif os.waitstatus_to_exitcode(status) != 0 or not chunks:
        result = {"exit": None,
                  "error": f"child ended with status {os.waitstatus_to_exitcode(status)}"}
    else:
        result = json.loads(b"".join(chunks))
    result.update(latency_s=latency, cpu_s=usage.ru_utime + usage.ru_stime,
                  maxrss_mb=usage.ru_maxrss / 1024.0)
    return result

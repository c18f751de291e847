"""One task of the benchmark in a fresh interpreter.

Reads a JSON task on stdin and prints one JSON line on stdout.  Run from
the root of a checkout; the program is imported from its ``src``.

Tasks (each may also hold "scale": true, see below):
  {"kind": "setup", "texts": [...], "build": [[i, class], ...]}
      import the package, parse the presentation texts and build the
      listed quotients (index into ``texts``);
  {"kind": "suite", "argv": [...], "trace": bool}
      run the command line once, with stdout captured;
  {"kind": "build", "text": str, "class": int, "trace": bool}
      parse a presentation and build its nilpotent quotient.

With "scale", a ``speed.Sampler`` runs from the start of the task to
its end.  The reply's "speed" then holds its samples and the handler's
total time, and "op_spent" the handler's time within the op, so that
the caller can scale the process's wall time and the op's time to the
reference speed.
"""

import contextlib
import io
import json
import os
import sys
import time

import speed


def main():
    task = json.load(sys.stdin)
    sampler = speed.Sampler() if task.get("scale") else None
    if sampler:
        sampler.start()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    start = time.perf_counter()
    import pvb3.cli
    from pvb3 import fpres, nq
    out = {"import_s": time.perf_counter() - start}

    if task["kind"] == "setup":
        pres = [fpres.Presentation.from_text(t) for t in task["texts"]]
        for i, c in task.get("build", ()):
            nq.nilpotent_quotient(pres[i], c)
        finish(out, sampler)
        return

    tracer = None
    if task["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    if task["kind"] == "suite":
        def op():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = pvb3.cli.main(task["argv"])
            return code, buf.getvalue()
        name = "cli.main"
    else:
        def op():
            # module attributes, looked up after the tracer wrapped them
            q = nq.nilpotent_quotient(fpres.Presentation.from_text(task["text"]), task["class"])
            return 0, [[free, list(torsion)] for free, torsion in q.layers]
        name = "bench.op"

    spent = sampler.spent if sampler else 0.0
    t = time.perf_counter()
    code, value = tracer.op(0, op, name=name) if tracer else op()
    out["op_window"] = [t, time.perf_counter()]
    out["op_s"] = out["op_window"][1] - t
    if sampler:
        out["op_spent"] = sampler.spent - spent
    out["exit"] = code
    out["value"] = value
    if tracer:
        tracer.uninstall()
        out["totals"] = tracer.totals()
    finish(out, sampler)


def finish(out, sampler):
    if sampler:
        sampler.stop()
        out["speed"] = {"samples": sampler.samples, "spent": sampler.spent}
    print(json.dumps(out))


if __name__ == "__main__":
    main()

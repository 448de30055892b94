"""`python -m wittburnside` under the span tracer, for the traced cli-session.

    python3 bench/cli_traced.py SPANS_FILE VERB ARGS...

Every library call the verb makes is recorded; the spans go to SPANS_FILE
when the verb returns.
"""
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    sys.path.insert(0, HERE)
    import spans
    from wittburnside import cli

    tracer = spans.Tracer()
    tracer.install()
    tracer.active = True
    try:
        return cli.main(argv[1:])
    finally:
        tracer.active = False
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

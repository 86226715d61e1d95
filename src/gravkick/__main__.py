"""The process entry of `python -m gravkick` and of the `gravkick` console script."""

import gc


def run() -> int:
    """Run the CLI; its imports' heap is made with the collector paused, then frozen."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        from . import cli
        gc.freeze()
    finally:
        if enabled:
            gc.enable()
    return cli.main()


if __name__ == "__main__":
    raise SystemExit(run())

"""The end-to-end command-line workflow, driven programmatically.

Equivalent shell session:

    explaudit gen-data --pairs 200 --injection length --out pairs.csv
    explaudit validate --dataset pairs.csv
    explaudit audit --dataset pairs.csv --out audit/ --runs 2 \
        --epochs 30 --methods GRAD,GXI --metrics comprehensiveness,gini
    explaudit report audit/ --format svg --out plots/
"""

import os
import tempfile

from explaudit import cli


def run(*args):
    print(f"$ explaudit {' '.join(args)}")
    code = cli.main(list(args))
    assert code == 0, f"exit code {code}"
    print()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "pairs.csv")
        audit_dir = os.path.join(tmp, "audit")
        plots = os.path.join(tmp, "plots")

        run("gen-data", "--pairs", "200", "--injection", "length",
            "--seed", "0", "--out", data)
        run("validate", "--dataset", data)
        run("audit", "--dataset", data, "--out", audit_dir,
            "--runs", "2", "--epochs", "30",
            "--methods", "GRAD,GXI",
            "--metrics", "comprehensiveness,gini")
        run("report", audit_dir, "--format", "svg", "--out", plots)
        print("report directory contents:",
              ", ".join(sorted(os.listdir(audit_dir))))


if __name__ == "__main__":
    main()

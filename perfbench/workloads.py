"""The benchmark's workloads: which tasks each one runs, at which orders.

A task names a public function of `hilbvertex.checks` and its arguments, and
an oracle kind that tells the worker how to check the output:

  verdict  a VerificationReport whose outcome must be "exact-match";
  main     as verdict, plus exactly one (reading, shift) match, the one that
           the frozen conventions record;
  export   the `series F` export: closed_F, rendered; it must equal the
           plethystic form of the same generating function;
  vertex   a capped vertex table, re-certified as acceptance criterion 6
           does it.

This module imports nothing from the package, so the parent process stays
light and every import happens inside the timed worker.
"""

from dataclasses import dataclass

# the answer check_main must give (DEFAULT_CONVENTIONS: main_reading and
# main_shift sigma=1, e_hbar=-1, e_q=1)
MAIN_MATCH = {"reading": "printed_inverse", "shift": "+z*hbar^-1*q^1"}


@dataclass(frozen=True)
class Task:
    name: str
    kind: str
    func: str
    args: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    top_degree: int | None  # basis degree built in set-up; None: import only
    tasks: tuple
    # the basis H_lam, |lam| <= top_degree, counts among the outputs whose
    # size is reported (the localization checks export nothing else)
    basis_is_output: bool = False

    def task(self, name):
        for t in self.tasks:
            if t.name == name:
                return t
        raise KeyError(f"workload {self.name} has no task {name!r}")


def _define(loc_degree, fusion_y, fusion_z, limit_n, vertex_ns):
    d, y, z, n = loc_degree, fusion_y, fusion_z, limit_n
    localization = Workload("localization", d, (
        Task("kernel", "verdict", "check_kernel_identity", (d,)),
        Task("osum", "verdict", "check_osum", (d,)),
        Task("mellit", "verdict", "check_mellit", (d,)),
    ), basis_is_output=True)
    fusion = Workload("fusion", None, (
        Task("main", "main", "check_main", (y, z)),
        Task("ook", "verdict", "check_ook", (y, z)),
        Task("slice", "verdict", "check_degenerate_slice", (y,)),
        Task("prop1", "verdict", "check_prop1", (n,)),
        *(Task(f"prop4_k{k}", "verdict", "check_prop4", (n, k))
          for k in range(n + 1)),
        Task("series_F", "export", "closed_F", (y, z)),
    ))
    vertex = Workload("vertex", max(vertex_ns), tuple(
        Task(f"vertex_n{m}", "vertex", "capped_vertex_table", (m,))
        for m in vertex_ns))
    return {w.name: w for w in (localization, fusion, vertex)}


# "full" is what the benchmark measures; "tiny" keeps every task kind at
# small orders, for the benchmark's own tests
SIZES = {
    "full": _define(5, 5, 8, 6, (1, 2, 3)),
    "tiny": _define(2, 2, 3, 2, (1,)),
}

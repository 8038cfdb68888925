"""Byte-identity pins on the outputs of the fixtures.

Orbit dumps, witness words and edge tables, the Aut+ records and the
seed period lists of A3, B3, A4 and D4, and the distinguisher witnesses
on the reference grid, are serialized and hashed.  The matrix period
lists and the finiteness probe results were pinned before matrix period
walks left ExchangeMatrix objects for integer rows.  The orbit and Aut+
digests were taken before the per-search exchange memo went into
`seeds.orbit`, the period and witness digests before the seed key walks
carried H = C^-1 and pruned on it.  The matrix class, classification,
equivariant-automorphism and budget-cut orbit digests were taken before
`exchange._closure` read back edges from its back table instead of
computing them.  The classification and probe digests of the fixtures
whose lines read `unknown(budget=N)` for finite type (A2, A3, B2, G2,
rank4-v1; the probes of A2 to D4) were taken again when finite type
came to be decided by the Barot–Geiss–Zelevinsky test at any budget;
only those lines changed.  A change that only makes these searches
faster must leave every one of them as it is.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict

import pytest

from clusteralg import fixtures
from clusteralg.classify import (
    automorphism_finiteness_probe,
    classify,
    is_finite_mutation_type,
    is_finite_type,
)
from clusteralg.exchange import (
    ExchangeMatrix,
    Permutation,
    all_permutations,
    matrix_mutation_class,
)
from clusteralg.groups import enumerate_aut_plus, equivariant_automorphisms
from clusteralg.periodicity import find_periods, period_set_distinguisher
from clusteralg.seeds import LabeledSeed, OrbitGraph, apply_sequence, format_sequence, orbit

FAMILIES = {
    "A3": fixtures.a3_path_matrix(),
    "B3": ExchangeMatrix([[0, 1, 0], [-1, 0, 1], [0, -2, 0]]),
    "A4": fixtures.a4_path_matrix(),
    "D4": ExchangeMatrix([[0, 1, 1, 1], [-1, 0, 0, 0], [-1, 0, 0, 0], [-1, 0, 0, 0]]),
}
BUDGET = 2000

ORBIT_DIGESTS = {
    "A3/initial/plain": "4d3cf72df24fd94ce519d48afd8b3281b750de8801a81850c167625e95b0a3a2",  # 84 seeds
    "A3/initial/relabel": "7456e6d03f4c99fb86c05ce7325add426f8a7fadec9f0de19f86e3cff692d751",  # 84 seeds
    "A3/after-1-2/plain": "e22efd4b41fdab744f2b3510b8299c3287de12847d598b0978e9e4a230636b64",  # 84 seeds
    "A3/after-1-2/relabel": "879b4336b3d018bf2d3ccce698fd6beb4128e68a4d005987742b6d15d2de520b",  # 84 seeds
    "B3/initial/plain": "6f5907b677594e6a4b3a5863afb3b86a1ecc044c65653d2d231130bd35e33b03",  # 40 seeds
    "B3/initial/relabel": "81a7e96951a80918b1942a19d3ed2b45c07c6658534cadc98e4e116673df8e5c",  # 120 seeds
    "B3/after-1-2/plain": "31f07ba7082286f1e600fdc212a843b0e7c148c5cd413797098aee959e2e63c2",  # 40 seeds
    "B3/after-1-2/relabel": "346c3cd679e52f0ed04aec24a70981a3af57dd43e0bd7a8d4288f70b340b020f",  # 120 seeds
    "A4/initial/plain": "b2ea183c231a0843062eb5e8560a9d8388bee2c3333ce151af2d9a0defab1a83",  # 1008 seeds
    "A4/initial/relabel": "d90c7af93e6823817d243c8ae523809daffc3000feeda5c491f35f88a2bf721c",  # 1008 seeds
    "A4/after-1-2/plain": "282a24f2ee071a35e84bbb4a0fd3e0147c1c6ca3619d23ce4dfba5982524c032",  # 1008 seeds
    "A4/after-1-2/relabel": "0a699f0337f064e5c21bfc8fb167a25b2028dbd2ec139140f326494025a35bb6",  # 1008 seeds
    "D4/initial/plain": "0a6e017844fd51db82a52feeda79e8534d640895f1554e974e5ff04eaa40582c",  # 1200 seeds
    "D4/initial/relabel": "25ff67c661decd391b8835069eab89e27b4701bd6bd3ddc67f416f5465f5b9ef",  # 1200 seeds
    "D4/after-1-2/plain": "e4a93c2659b2f9c4002584d23ee7eb7728e0e7b70727ecc34acbb0bbdbe89a01",  # 1200 seeds
    "D4/after-1-2/relabel": "85b53549ec3dc601fec21f98e2504c05a7970e20eb6d91372210c75aea971a23",  # 1200 seeds
}
AUT_PLUS_DIGESTS = {
    "A3": "d2caf242c283980717d75c53a44fff005539c7eca0d7750b211f8353416115be",  # 84-seed orbit, 6 elements
    "B3": "966e48c1e8785cecbaac25f0ba337f9401fdcff63ded1437ddcfdf8e9f00a637",  # 40-seed orbit, 4 elements
    "A4": "16e032f878f2acaa2d1efd7f4a91b5f54b34ca144e5c13c4a9e548f140259ac3",  # 1008-seed orbit, 7 elements
    "D4": "9d8677c4ca07693a76e035e4fca7528bf0dd2abca86dfcf20fb4f34c79a496ba",  # 1200-seed orbit, 24 elements
}

# sigma-periods to length 6 of each initial seed, for the identity and
# the swap of the simple arrow 1 -> 2
PERIOD_DIGESTS = {
    "A3": "73504cb03321305c05ae7b118d527ec517a7648696dd671131e05b52e5c0bf73",
    "B3": "8de31d6feb0e3ee0dfaab13e3f012a92e4bcdcc039b092bf2ffc12e9d021568c",
    "A4": "befd387b4a46a4362db12912f347e5141b0d2081cdc23e1b59e4c3b99dd64639",
    "D4": "2220f3f4b8c2170df69d67e7f308e650666caab5034d6eaf6065a02d04a04518",
}
PERIOD_LEN = 6
# sigma-periods to length 6 of each exchange matrix, for every sigma,
# essential words only and all words
MATRIX_PERIOD_DIGESTS = {
    "A3": "f03a7ed3a067f21fc8bb31dd7c5d59a97ba03de20452c851ca33018d99afefee",
    "B3": "f73802a77ea9d5fbf7c129c8b438bcd458e5be903d0caff064da9749ce363991",
    "A4": "cba6fdf5f76d3356fc6890539648d325b988d52e0027a3ad8f180971c16974ab",
    "D4": "8f5fe66e2f3ab9ac055d1100f859f4a131ce5356387720c273ff8b6db37bf2bc",
}
# the grid of the Laurent reference distinguisher: every relabeling at
# rank 2; at rank 3 the identity and a 3-cycle
DISTINGUISHER_PAIRS = {
    "path-fork": (fixtures.path3(1, 1), fixtures.fork3(1, 1)),
    "acyclic-forkchord": (
        fixtures.acyclic_triangle(1, 1, 2),
        fixtures.fork_chord_triangle(1, 1, 2),
    ),
    "acyclic-cyclic": (fixtures.acyclic_triangle(1, 1, 2), fixtures.cyclic_triangle(1, 1, 2)),
    "path-cyclic": (fixtures.path3(1, 1), fixtures.cyclic_triangle(1, 1, 1)),
    "acyclic-cyclic(1,1,1)": (
        fixtures.acyclic_triangle(1, 1, 1),
        fixtures.cyclic_triangle(1, 1, 1),
    ),
    "path-acyclic(1,1,1)": (fixtures.path3(1, 1), fixtures.acyclic_triangle(1, 1, 1)),
    "A2-B2": (fixtures.a2_matrix(), fixtures.b2_matrix()),
    "B2-G2": (fixtures.b2_matrix(), fixtures.g2_matrix()),
    "A2-kronecker": (fixtures.a2_matrix(), fixtures.kronecker_matrix(2)),
}
DISTINGUISHER_DIGESTS = {
    "path-fork": "aa585b83d67acac13139eadf1623a26bd211e9e3828a25c05dc6396d5118ebf7",
    "acyclic-forkchord": "ecfbc9d080447643a8b2d71497454e5d745aa6f9d0a37c5cf3d17ba00c85275f",
    "acyclic-cyclic": "e2b977acea24b4c4edd7f07f4b27f9cfd5e62c3efa2dfadeb6994426f984abea",
    "path-cyclic": "9e2753b6d40e257a517a38c25d1a924e1e5c08aa5d9f66d96e900a096878c213",
    "acyclic-cyclic(1,1,1)": "884d73dd73603a0af39662a0bbe91540b0462b753132d49cc586ce1a99d1342c",
    "path-acyclic(1,1,1)": "f5dd4a600316bc75386467ec2317b284d0d9efdf16be0055da0a09c5180e3564",
    "A2-B2": "4395dafa935108b150f88a486ccaa61fcade24b52489478f701403111fff0d8e",
    "B2-G2": "3ac9cf65d75cc0ffd2b7ce4705accccdca9f1fb521a30aa70f32f3e0cc1d2bcc",
    "A2-kronecker": "2b7d6b79a3bb0c524c442089411953764ba53b8cd6b6e016600e076c8ef49135",
}


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _orbit_lines(g: OrbitGraph) -> list[str]:
    lines = [f"complete {g.complete} size {len(g)}"]
    lines += g.dump_lines()
    lines += [f"{format_sequence(word)} {pi.images}" for word, pi in g.words]
    lines += [f"{source} {label} {target}" for source, label, target in g.edges]
    return lines


def _aut_plus_lines(s: LabeledSeed) -> list[str]:
    r = enumerate_aut_plus(s, BUDGET)
    lines = [r.summary.to_json(), f"complete {r.complete} orbit {r.orbit_size}"]
    for e in r.elements:
        cluster = "|".join(p.canonical_string() for p in e.image_cluster)
        lines.append(f"{format_sequence(e.witness_sequence)} {e.witness_sigma.images} {cluster}")
    return lines


def _orbit_cases():
    for name in FAMILIES:
        for root in ("initial", "after-1-2"):
            for with_permutations in (False, True):
                yield f"{name}/{root}/{'relabel' if with_permutations else 'plain'}"


def _orbit_of(case: str) -> OrbitGraph:
    name, root, mode = case.split("/")
    s = LabeledSeed.initial(FAMILIES[name])
    if root == "after-1-2":
        s = apply_sequence(s, (1, 2))
    return orbit(s, BUDGET, mode == "relabel")


@pytest.mark.parametrize("case", list(_orbit_cases()))
def test_orbit_outputs_are_pinned(case):
    assert _digest(_orbit_lines(_orbit_of(case))) == ORBIT_DIGESTS[case]


@pytest.mark.parametrize("name", FAMILIES)
def test_aut_plus_records_are_pinned(name):
    s = LabeledSeed.initial(FAMILIES[name])
    assert _digest(_aut_plus_lines(s)) == AUT_PLUS_DIGESTS[name]


def _period_lines(name: str) -> list[str]:
    s = LabeledSeed.initial(FAMILIES[name])
    lines = []
    for sigma in (Permutation.identity(s.rank), Permutation.transposition(s.rank, 1, 2)):
        found = find_periods(s, sigma, PERIOD_LEN)
        lines.append(f"{sigma.images} {len(found)}")
        lines += [format_sequence(seq) for seq in found]
    return lines


def _distinguisher_lines(B1: ExchangeMatrix, B2: ExchangeMatrix) -> list[str]:
    if B1.n == 2:
        sigmas, grid = all_permutations(2), ((0, 12), (2, 12))
    else:
        sigmas = [Permutation.identity(3), Permutation([3, 1, 2])]
        grid = ((0, 10), (2, 8), (3, 10))
    lines = []
    for sigma in sigmas:
        s1 = LabeledSeed.initial(B1).permute(sigma)
        s2 = LabeledSeed.initial(B2).permute(sigma)
        for depth, period_len in grid:
            w = period_set_distinguisher(s1, s2, depth, period_len)
            found = "none" if w is None else (
                f"({format_sequence(w.conjugator)}) ({format_sequence(w.period)}) "
                f"{w.period_holds_on}"
            )
            lines.append(f"{sigma.images} {depth} {period_len} {found}")
    return lines


@pytest.mark.parametrize("name", FAMILIES)
def test_seed_period_lists_are_pinned(name):
    assert _digest(_period_lines(name)) == PERIOD_DIGESTS[name]


def _matrix_period_lines(name: str) -> list[str]:
    B = FAMILIES[name]
    lines = []
    for sigma in all_permutations(B.n):
        for essential_only in (True, False):
            found = find_periods(B, sigma, PERIOD_LEN, essential_only)
            lines.append(f"{sigma.images} {essential_only} {len(found)}")
            lines += [format_sequence(seq) for seq in found]
    return lines


@pytest.mark.parametrize("name", FAMILIES)
def test_matrix_period_lists_are_pinned(name):
    assert _digest(_matrix_period_lines(name)) == MATRIX_PERIOD_DIGESTS[name]


@pytest.mark.parametrize("pair", DISTINGUISHER_PAIRS)
def test_distinguisher_witnesses_are_pinned(pair):
    assert _digest(_distinguisher_lines(*DISTINGUISHER_PAIRS[pair])) == DISTINGUISHER_DIGESTS[pair]


# the fixtures of the classification tests, and the budgets their
# decisions are pinned at; A4 and D4 also pin their whole matrix class
CLASS_FIXTURES = {
    "A2": fixtures.a2_matrix(),
    "A3": fixtures.a3_path_matrix(),
    "B2": fixtures.b2_matrix(),
    "G2": fixtures.g2_matrix(),
    "kronecker": fixtures.kronecker_matrix(2),
    "markov": fixtures.markov_matrix(),
    "rank4-v1": fixtures.rank4_v1_matrix(),
    "weighted-path3": fixtures.weighted_path3_matrix(),
}
CLASSIFY_BUDGETS = (1, 3, 7, 12, 200)
MATRIX_CLASS_CASES = {
    **CLASS_FIXTURES,
    **{name: FAMILIES[name] for name in ("B3", "A4", "D4")},
}
MATRIX_CLASS_BUDGETS = CLASSIFY_BUDGETS + (BUDGET,)
MATRIX_CLASS_DIGESTS = {
    "A2": "2e4f2508cf657d99b155b1be7ccb0b96e210413ac656eb82700c87c01c69663b",  # 2 matrices
    "A3": "f8901d2059cce96283706d33b0f90951f41904589d35f978f4366f98f497f1db",  # 14 matrices
    "B2": "9e2dd9f612e48ca1682a1afe99597db88665349258bc229256e9a55c559450d9",  # 2 matrices
    "G2": "da4c4e6572d6d94b3f0bce3e1bb95e7a593bd854798d06e792120090ebfcb4ff",  # 2 matrices
    "kronecker": "908006b7ec9cace509806cfaaa4ec778bae1078f6daeb7de3dee9178c2ba67f0",  # 2 matrices
    "markov": "a7c1b25d933bdf7f4fc860d5c7a780097203dffaa11f8c8a3c6e72f067e5b2e2",  # 2 matrices
    "rank4-v1": "96ff73c43b6d726189b6fbb8de9ae0a430c7cd57d1127b2a9e159d1e88e35784",  # cut at 2000
    "weighted-path3": "2c47d7f38527702cacfca2ba28e9725b4fb22dcbdafb58990727fa3348d90ebd",  # cut at 2000
    "B3": "3fb98a6343284508aae47f8104c025bcfbf16f3b1d984df7d684eff44e142209",  # 10 matrices
    "A4": "ccd59f3f255e870ba5891419de2534ec4446957ab47808328c9662432a7e8f43",  # 144 matrices
    "D4": "907b46f2798a8f59e85374af7b3deb5475f165469ea7889848e38915a508b7a5",  # 50 matrices
}
CLASSIFY_DIGESTS = {
    "A2": "c663df85ec8eed753ea706b2d8c3d4fb63ddaced5924a249669e143ba375a2c5",
    "A3": "b523d49d7b01693c768dff80cbee652e57c612595d2a60dee5778c9dff561414",
    "B2": "ef7bcb2dfae33d18528eac7208f4315e2c8c43a6ac6e616dbfc000d847220a7a",
    "G2": "2ee2843796853ef17e8f5c0b6c2faa47d3754f2e52f82ba7a20272b97573b870",
    "kronecker": "ae34d5afc21e4f70950d50b3fccaade2e08fe681f89f67c813bcdd057446a4f7",
    "markov": "cdfa6b1c144297121f3f8f43c3392947682fb79b204fd53326bd434539cda314",
    "rank4-v1": "6ac4fda4855d61a5f72d1c4aebc641689b69884b5de5b98dac9e2bfd03c4722e",
    "weighted-path3": "1f802c36e32d9d2f3defa5cbc5940fc5a7d6b28f9fafcef0a00d92d6bb50c6df",
}
# the finiteness probe on the matrix class cases and on four infinite
# rank-3 fixtures, at the classification budgets; its candidates are
# matrix periods, found by find_periods and checked by is_sigma_period
PROBE_CASES = {
    **MATRIX_CLASS_CASES,
    "kronecker3": fixtures.kronecker_matrix(3),
    "acyclic(1,1,2)": fixtures.acyclic_triangle(1, 1, 2),
    "cyclic(1,1,2)": fixtures.cyclic_triangle(1, 1, 2),
    "fork-chord(1,1,2)": fixtures.fork_chord_triangle(1, 1, 2),
}
PROBE_DIGESTS = {
    "A2": "71c330655fb3826c3d28e7c59274645d4ab76bcc43ad96c1308ebfc7ba544405",  # finite
    "A3": "71c330655fb3826c3d28e7c59274645d4ab76bcc43ad96c1308ebfc7ba544405",  # finite
    "B2": "71c330655fb3826c3d28e7c59274645d4ab76bcc43ad96c1308ebfc7ba544405",  # finite
    "G2": "71c330655fb3826c3d28e7c59274645d4ab76bcc43ad96c1308ebfc7ba544405",  # finite
    "kronecker": "2b059bbaa81e1a3b348148b02c38bb2648b2c6da99d69fc7fc89287bf63d5bfc",  # (1,2)
    "markov": "2b059bbaa81e1a3b348148b02c38bb2648b2c6da99d69fc7fc89287bf63d5bfc",  # (1,2)
    "rank4-v1": "aeb8bb06878f3788684983de7f4f2bb71ab573ad2664297a9202a926b527cc1e",  # (1,2,4,3)
    "weighted-path3": "f5e69397414384085ada6d9edaf4129e4c3c14a259bb6557fe60824e7d22b212",  # (1,2,3)
    "B3": "71c330655fb3826c3d28e7c59274645d4ab76bcc43ad96c1308ebfc7ba544405",  # finite
    "A4": "71c330655fb3826c3d28e7c59274645d4ab76bcc43ad96c1308ebfc7ba544405",  # finite
    "D4": "71c330655fb3826c3d28e7c59274645d4ab76bcc43ad96c1308ebfc7ba544405",  # finite
    "kronecker3": "2b059bbaa81e1a3b348148b02c38bb2648b2c6da99d69fc7fc89287bf63d5bfc",  # (1,2)
    "acyclic(1,1,2)": "f5e69397414384085ada6d9edaf4129e4c3c14a259bb6557fe60824e7d22b212",  # (1,2,3)
    "cyclic(1,1,2)": "a23a4eb7714547722c4e2ae83ea9addfd0ab61137d6c9bf3d9aeeab6a2b826b0",  # (1,3)
    "fork-chord(1,1,2)": "6390496da4315e475002ca382e0d61e08ff4cbc36c7373b0d92894fadafab286",  # (1,3,2)
}
# the relabeling orbits of A3 and B3, from the initial seed and after (1, 2)
EQUIVARIANT_DIGESTS = {
    "A3/initial/relabel": "f871b665e9901f288ac3c42bb2d7a3c59084e424acfdd44191721af7d8dcde4c",
    "A3/after-1-2/relabel": "0cadf72fe088a1ab94574d019a4fe51e56dc257cb98371bef4d469a2538c096e",
    "B3/initial/relabel": "e53a1870883dfbd72c2a7a5a0f96a5a996244859d7fa7213c64a1fd9d283588c",
    "B3/after-1-2/relabel": "dbd5a95605a9b30e3b451be687b8e4ee4fb9811159080bcd42814e0295ab145a",
}
# orbits their budget cuts short, from the initial seed
CUT_ORBITS = {
    "kronecker/12": (fixtures.kronecker_matrix(2), 12),
    "kronecker/40": (fixtures.kronecker_matrix(2), 40),
    "acyclic(1,1,2)/20": (fixtures.acyclic_triangle(1, 1, 2), 20),
}
CUT_ORBIT_DIGESTS = {
    "kronecker/12/plain": "baf1545c4d0544449764c9307f142ba74edf6fbcc7feea8060aa9e1b97c64f35",  # 20 edges
    "kronecker/12/relabel": "f0f7cbbd8c08402225dc3838505d6703b360dc5455b3050bfb8977e84ce9a409",  # 25 edges
    "kronecker/40/plain": "38bd8827bead36076380c5039b37d376b07097417e12929ee24f0a76f0cad6d8",  # 76 edges
    "kronecker/40/relabel": "82df86335c364887972657ae58e352a1cf54a8e9dcfe63b8b55533ca9e8ea0b0",  # 108 edges
    "acyclic(1,1,2)/20/plain": "7191ad67f2f73728cf296a275c7c93f50aea1d70588edfae4fa8b8128329b09f",  # 27 edges
    "acyclic(1,1,2)/20/relabel": "f2c2f55aa7098830e25e457ebc100beeeb33dd1a85093340af542d718d18c8d8",  # 30 edges
}


def _matrix_class_lines(B: ExchangeMatrix) -> list[str]:
    lines = []
    for budget in MATRIX_CLASS_BUDGETS:
        c = matrix_mutation_class(B, budget)
        lines.append(f"budget {budget} complete {c.complete} size {len(c)}")
        lines += [f"{format_sequence(word)} {M.rows}" for M, word in zip(c.matrices, c.words)]
    return lines


def _decision_line(d) -> str:
    witness = None if d.witness is None else {**asdict(d.witness), "sequence": list(d.witness.sequence)}
    return f"{d.status} {d.budget} {witness}"


def _classify_lines(B: ExchangeMatrix) -> list[str]:
    lines = []
    for budget in CLASSIFY_BUDGETS:
        lines.append(classify(B, budget).to_json())
        lines.append(_decision_line(is_finite_type(B, budget)))
        lines.append(_decision_line(is_finite_mutation_type(B, budget)))
    return lines


def _probe_lines(B: ExchangeMatrix) -> list[str]:
    s = LabeledSeed.initial(B)
    return [repr(automorphism_finiteness_probe(s, budget)) for budget in CLASSIFY_BUDGETS]


def _equivariant_lines(case: str) -> list[str]:
    r = equivariant_automorphisms(_orbit_of(case))
    lines = [f"orbit {r.orbit_size} aut_A {r.aut_A_order} kp {r.kp_identity} W {r.w_indices}"]
    lines += [f"{image0} {f}" for image0, f in zip(r.element_images, r.elements)]
    return lines


@pytest.mark.parametrize("name", MATRIX_CLASS_CASES)
def test_matrix_classes_are_pinned(name):
    assert _digest(_matrix_class_lines(MATRIX_CLASS_CASES[name])) == MATRIX_CLASS_DIGESTS[name]


@pytest.mark.parametrize("name", CLASS_FIXTURES)
def test_classifications_are_pinned(name):
    assert _digest(_classify_lines(CLASS_FIXTURES[name])) == CLASSIFY_DIGESTS[name]


@pytest.mark.parametrize("name", PROBE_CASES)
def test_finiteness_probes_are_pinned(name):
    assert _digest(_probe_lines(PROBE_CASES[name])) == PROBE_DIGESTS[name]


@pytest.mark.parametrize("case", EQUIVARIANT_DIGESTS)
def test_equivariant_automorphisms_are_pinned(case):
    assert _digest(_equivariant_lines(case)) == EQUIVARIANT_DIGESTS[case]


@pytest.mark.parametrize("case", CUT_ORBIT_DIGESTS)
def test_budget_cut_orbits_are_pinned(case):
    name, mode = case.rsplit("/", 1)
    B, budget = CUT_ORBITS[name]
    g = orbit(LabeledSeed.initial(B), budget, mode == "relabel")
    assert not g.complete
    assert _digest(_orbit_lines(g)) == CUT_ORBIT_DIGESTS[case]

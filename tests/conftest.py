import os

import pytest

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture
def data_path():
    def get(name):
        return os.path.join(DATA_DIR, name)

    return get


def circle_structure(windings):
    """Structure file of loops on the circle with windings 0..n, higher
    windings set to zero, as in data/circle.struct (which is n = 4).

    T_i has degree 0 and A_i degree -1; T_i times T_j or A_j adds the
    windings; delta and mark carry winding i to i*T_i; the bracket is the
    deviation of delta from a derivation: [T_i, A_j] = i T_{i+j},
    [A_i, T_j] = -j T_{i+j}, [A_i, A_j] = (i - j) A_{i+j}.
    """
    w = range(windings + 1)
    lines = [f"basis T_{i} 0" for i in w] + [f"basis A_{i} -1" for i in w]
    lines += [f"sbasis S_{i} -1" for i in w]
    for i in w:
        for j in range(windings + 1 - i):
            k = i + j
            lines += [
                f"product T_{i} T_{j} = T_{k}",
                f"product T_{i} A_{j} = A_{k}",
                f"product A_{i} T_{j} = A_{k}",
            ]
            if i:
                lines.append(f"bracket T_{i} A_{j} = {i}*T_{k}")
            if j:
                lines.append(f"bracket A_{i} T_{j} = {-j}*T_{k}")
            if i != j:
                lines.append(f"bracket A_{i} A_{j} = {i - j}*A_{k}")
    for i in w:
        lines.append(f"E A_{i} = S_{i}")
        if i:
            lines += [f"delta A_{i} = {i}*T_{i}", f"M S_{i} = {i}*T_{i}"]
    return "".join(line + "\n" for line in lines)

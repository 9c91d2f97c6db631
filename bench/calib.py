"""Fixed reference work that measures how fast the machine runs Python now.

Usage: python bench/calib.py

The benchmark runs this after every command and set-up group, in a fresh
interpreter like every command, and scales the times it reports by
CAL_REF_S over the time this took (bench/run.py).

It must never import hrmc: a change to the program would then move the
yardstick too. The mix (small-int arithmetic, list and dict traffic,
tuples, big-int arithmetic) follows the interpreter work the hrmc
commands do.
"""

ROUNDS = 150000


def work(rounds: int) -> int:
    table: dict[int, int] = {}
    acc = 0
    rows = [[(i * 7 + j) % 13 for j in range(8)] for i in range(16)]
    for i in range(rounds):
        x = (i * 2654435761) % 1000003
        table[x & 255] = table.get(x & 255, 0) + 1
        col = [v ^ (x & 7) for v in rows[i & 15]]
        acc += sum(col) % 11
        acc ^= (x, i, acc)[0] & 3
    big = 3 ** 2000
    for i in range(200):
        big = big * 7 // 3 + i
    return acc + big % 97 + len(table)


if __name__ == "__main__":
    print(work(ROUNDS))

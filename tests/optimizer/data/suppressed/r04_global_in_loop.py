RATE = 2


def scaled(xs):
    total = 0
    for x in xs:
        total += x * RATE  # pepo: ignore[R04_GLOBAL_IN_LOOP]
    return total

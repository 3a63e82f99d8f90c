"""The published 1xn census counts, for the scripts and the test suite.

games          boards analysed per length
unsimplified, syntactic, selfish, prudent
               distinct values per regime and length

Not a command: running it prints nothing.
"""

# Reference counts for the 1xn experiment (published values; the golden
# data the acceptance gate pins against).
PUBLISHED_COUNTS: dict[str, dict[int, int]] = {
    "games": {
        2: 3, 3: 15, 4: 60, 5: 243, 6: 924, 7: 3609, 8: 13704,
        9: 52497, 10: 199329, 11: 758556, 12: 2878512, 13: 10949499,
    },
    "unsimplified": {
        2: 2, 3: 3, 4: 7, 5: 21, 6: 77, 7: 506, 8: 2408,
        9: 9777, 10: 36407, 11: 128345, 12: 434571, 13: 1441816,
    },
    "syntactic": {
        2: 2, 3: 3, 4: 7, 5: 21, 6: 77, 7: 501, 8: 2398,
        9: 9748, 10: 36326, 11: 128179, 12: 434274, 13: 1441334,
    },
    "selfish": {
        2: 2, 3: 3, 4: 4, 5: 5, 6: 7, 7: 8, 8: 9,
        9: 20, 10: 154, 11: 2163, 12: 30378, 13: 256975,
    },
    "prudent": {
        2: 2, 3: 3, 4: 4, 5: 5, 6: 7, 7: 8, 8: 8,
        9: 10, 10: 11, 11: 13, 12: 13, 13: 14,
    },
}

"""The table and CSV reports of `paper_s4.json`, byte for byte.

Each entry is (command, options) -> the exact stdout of
`fuzrank <command> paper_s4.json <options>`, the fixed-width table or the
CSV rows. The JSON layout is pinned by `test_report.py`, which compares it
with `json.dumps`.
"""

REPORTS = {
    ('rank', ('--engine', 'both', '--format', 'table')): """\
== classic engine ==
cost = d_plus / (d_plus + d_minus)  (lower cost = cheaper action for the attacker)
minimum-effort action: A4
action             d+       d-     cost  benefit  rank
A4              0.014    0.174    0.076    0.924     1
A1              0.035    0.148    0.190    0.810     2
A2              0.059    0.123    0.325    0.675     3
A3              0.173    0.022    0.889    0.111     4

== fuzzy engine ==
cost = d_minus / (d_plus + d_minus)  (higher cost = cheaper action for the attacker)
minimum-effort action: A4
action             d+       d-     cost  benefit  rank
A4             10.424   11.262    0.519    0.481     1
A2             10.547   10.931    0.509    0.491     2
A1             11.302   11.039    0.494    0.506     3
A3             12.153   10.153    0.455    0.545     4
""",
    ('rank', ('--engine', 'both', '--format', 'csv')): """\
engine,action,d_plus,d_minus,cost,benefit,rank
classic,A4,0.014317566531022737,0.1743128815149896,0.07590273298577054,0.9240972670142295,1
classic,A1,0.03483291532483245,0.14810528223795705,0.19040810387823365,0.8095918961217663,2
classic,A2,0.05922088896311617,0.12303308916471653,0.32493605665813624,0.6750639433418637,3
classic,A3,0.17260043791845636,0.021548712912353253,0.8890094918255307,0.11099050817446933,4
fuzzy,A4,10.423572201710844,11.26233522271612,0.5193388960994202,0.48066110390057976,1
fuzzy,A2,10.547419566597455,10.931327274927025,0.5089369205559835,0.49106307944401656,2
fuzzy,A1,11.301823691071906,11.039103633361924,0.49412020696601416,0.5058797930339859,3
fuzzy,A3,12.152789955753565,10.153226063553609,0.45517882058209735,0.5448211794179028,4
""",
    ('veability', ('--format', 'table')): """\
== VEA-bility ==
asset                      V       E       A  veability
admin-workstation      4.150   0.483   4.941      6.808
AUSF                   6.100   0.483   5.089      6.109
AMF                    5.200   0.975   4.552      6.424
SDN-controller         4.750   0.317   4.552      6.794
NFVI                   5.350   1.300   5.089      6.087
RAN                    7.400   0.975   5.193      5.477
""",
    ('veability', ('--format', 'csv')): """\
asset,V,E,A,veability
admin-workstation,4.15,0.48333333333333334,4.941202069660141,6.808488199002175
AUSF,6.1,0.48333333333333334,5.089369205559835,6.109099153702276
AMF,5.2,0.975,4.551788205820974,6.424403931393009
SDN-controller,4.75,0.31666666666666665,4.551788205820974,6.793848375837454
NFVI,5.35,1.3,5.089369205559835,6.086876931480054
RAN,7.4,0.975,5.193388960994202,5.477203679668599
""",
}

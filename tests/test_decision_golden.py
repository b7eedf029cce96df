"""Decision goldens: the MAB tuner's choices at fixed seeds, pinned round by round.

Each scenario runs a few rounds of one MAB session and records, per round,
the sorted ids of the materialised indexes and the model execution and
creation (plus drop) seconds, rounded to 1e-9 relative.  The expected values
below were recorded once and must never be edited to make a change pass: a
refactor of the scoring path that keeps the tuner's decisions keeps these
numbers, bit for bit.  A standalone session and every tenant of a batched
three-tenant fleet must both reproduce the golden.

Regenerate the literal (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/test_decision_golden.py
"""

from __future__ import annotations

import pytest

from repro.api import DatabaseSpec, TenantSpec, TuningFleet, TuningSession, create_tuner
from repro.workloads import RandomWorkload, StaticWorkload, get_benchmark

#: name -> (database spec, workload class, template count, rounds, workload seed)
SCENARIOS = {
    "tpch_static": (
        DatabaseSpec("tpch", scale_factor=1.0, sample_rows=500, seed=7),
        StaticWorkload,
        None,
        6,
        3,
    ),
    "tpcds_random": (
        DatabaseSpec("tpcds", scale_factor=1.0, sample_rows=300, seed=7),
        RandomWorkload,
        30,
        5,
        5,
    ),
}

FLEET_TENANTS = ("a", "b", "c")


def _rounded(value: float) -> float:
    return float(f"{value:.9e}")


def _record(database, report) -> tuple:
    return (
        tuple(sorted(index.index_id for index in database.materialised_indexes)),
        _rounded(report.execution_seconds),
        _rounded(report.creation_seconds),
    )


def _workload_rounds(name: str):
    spec, workload_type, n_templates, n_rounds, seed = SCENARIOS[name]
    templates = get_benchmark(spec.benchmark_name).templates[:n_templates]
    return workload_type(spec.create(), templates, n_rounds=n_rounds, seed=seed).materialise()


def standalone_decisions(name: str) -> list[tuple]:
    spec = SCENARIOS[name][0]
    database = spec.create()
    session = TuningSession(database, create_tuner("MAB", database))
    decisions = []
    for workload_round in _workload_rounds(name):
        report = session.step_workload_round(workload_round)
        decisions.append(_record(database, report))
    return decisions


def fleet_decisions(name: str) -> dict[str, list[tuple]]:
    spec = SCENARIOS[name][0]
    fleet = TuningFleet(TenantSpec(tenant, spec, tuner="MAB") for tenant in FLEET_TENANTS)
    decisions: dict[str, list[tuple]] = {tenant: [] for tenant in FLEET_TENANTS}
    for workload_round in _workload_rounds(name):
        reports = fleet.step_workload_round(workload_round)
        for tenant in FLEET_TENANTS:
            database = fleet.session(tenant).database
            decisions[tenant].append(_record(database, reports[tenant]))
    return decisions


GOLDEN: dict[str, list[tuple]] = {'tpcds_random': [((), 43.96709093, 0.0),
                  (('ix_customer_address_ca_address_sk_ca_state',
                    'ix_customer_c_birth_country_c_customer_sk',
                    'ix_customer_c_customer_sk_c_birth_year',
                    'ix_date_dim_d_date_sk_d_year',
                    'ix_date_dim_d_dom_d_date_sk',
                    'ix_date_dim_d_moy_d_date_sk',
                    'ix_date_dim_d_qoy_d_date_sk',
                    'ix_store_sales_ss_hdemo_sk_ss_sold_date_sk(+ss_wholesale_cost_ss_net_profit)',
                    'ix_store_sales_ss_item_sk_ss_sold_date_sk_ss_promo_sk(+ss_wholesale_cost_ss_net_profit)',
                    'ix_store_sales_ss_sold_date_sk_ss_hdemo_sk_ss_store_sk(+ss_list_price_ss_ext_discount_amt)',
                    'ix_store_sales_ss_store_sk_ss_sold_date_sk(+ss_quantity_ss_sales_price)'),
                   48.12159985,
                   24.11848331),
                  (('ix_customer_address_ca_city_ca_address_sk',
                    'ix_customer_address_ca_gmt_offset_ca_address_sk',
                    'ix_date_dim_d_moy_d_date_sk',
                    'ix_date_dim_d_qoy_d_date_sk',
                    'ix_household_demographics_hd_demo_sk_hd_buy_potential',
                    'ix_household_demographics_hd_dep_count_hd_demo_sk',
                    'ix_household_demographics_hd_vehicle_count_hd_demo_sk',
                    'ix_item_i_category_id_i_item_sk',
                    'ix_item_i_class_id_i_item_sk',
                    'ix_item_i_color_i_item_sk',
                    'ix_item_i_item_sk_i_brand_id',
                    'ix_item_i_manufact_id_i_item_sk',
                    'ix_promotion_p_channel_email_p_promo_sk',
                    'ix_promotion_p_promo_sk_p_channel_tv',
                    'ix_store_s_county_s_store_sk',
                    'ix_store_s_state_s_store_sk',
                    'ix_store_sales_ss_hdemo_sk_ss_sold_date_sk(+ss_wholesale_cost_ss_net_profit)'),
                   53.70128541,
                   1.065613904),
                  (('ix_catalog_sales_cs_addr_sk',
                    'ix_catalog_sales_cs_customer_sk',
                    'ix_catalog_sales_cs_item_sk',
                    'ix_catalog_sales_cs_sold_date_sk',
                    'ix_catalog_sales_cs_store_sk',
                    'ix_customer_address_ca_state_ca_address_sk',
                    'ix_customer_c_birth_country_c_customer_sk',
                    'ix_customer_demographics_cd_demo_sk_cd_gender',
                    'ix_customer_demographics_cd_marital_status_cd_demo_sk',
                    'ix_date_dim_d_dom_d_date_sk',
                    'ix_date_dim_d_moy_d_date_sk',
                    'ix_date_dim_d_qoy_d_date_sk',
                    'ix_date_dim_d_year_d_date_sk',
                    'ix_household_demographics_hd_buy_potential_hd_demo_sk',
                    'ix_item_i_brand_id_i_item_sk',
                    'ix_item_i_color_i_item_sk',
                    'ix_promotion_p_channel_tv_p_promo_sk',
                    'ix_store_s_store_sk_s_county',
                    'ix_store_sales_ss_hdemo_sk_ss_sold_date_sk(+ss_wholesale_cost_ss_net_profit)',
                    'ix_web_sales_ws_addr_sk',
                    'ix_web_sales_ws_cdemo_sk',
                    'ix_web_sales_ws_customer_sk',
                    'ix_web_sales_ws_ext_sales_price',
                    'ix_web_sales_ws_hdemo_sk',
                    'ix_web_sales_ws_item_sk',
                    'ix_web_sales_ws_list_price',
                    'ix_web_sales_ws_net_profit',
                    'ix_web_sales_ws_promo_sk',
                    'ix_web_sales_ws_sold_date_sk',
                    'ix_web_sales_ws_store_sk',
                    'ix_web_sales_ws_wholesale_cost_ws_item_sk_ws_sold_date_sk(+ws_net_profit)'),
                   46.23671153,
                   35.74076144),
                  (('ix_catalog_sales_cs_hdemo_sk',
                    'ix_catalog_sales_cs_net_profit',
                    'ix_catalog_sales_cs_promo_sk',
                    'ix_customer_address_ca_city_ca_address_sk',
                    'ix_customer_address_ca_gmt_offset_ca_address_sk',
                    'ix_customer_address_ca_state_ca_address_sk',
                    'ix_customer_c_birth_year_c_customer_sk',
                    'ix_customer_demographics_cd_demo_sk_cd_gender',
                    'ix_customer_demographics_cd_education_status_cd_demo_sk',
                    'ix_date_dim_d_dom_d_date_sk',
                    'ix_date_dim_d_moy_d_date_sk',
                    'ix_date_dim_d_qoy_d_date_sk',
                    'ix_date_dim_d_year_d_date_sk',
                    'ix_household_demographics_hd_buy_potential_hd_demo_sk',
                    'ix_household_demographics_hd_dep_count_hd_demo_sk',
                    'ix_household_demographics_hd_vehicle_count_hd_demo_sk',
                    'ix_item_i_brand_id_i_item_sk',
                    'ix_item_i_category_id_i_item_sk',
                    'ix_item_i_class_id_i_item_sk',
                    'ix_item_i_color_i_item_sk',
                    'ix_item_i_manufact_id_i_item_sk',
                    'ix_store_sales_ss_addr_sk',
                    'ix_store_sales_ss_cdemo_sk',
                    'ix_store_sales_ss_customer_sk',
                    'ix_store_sales_ss_hdemo_sk_ss_sold_date_sk(+ss_wholesale_cost_ss_net_profit)',
                    'ix_store_sales_ss_promo_sk'),
                   55.69180368,
                   34.38609385)],
 'tpch_static': [((), 120.6681665, 0.0),
                 (('ix_lineitem_l_discount_l_shipdate_l_quantity(+l_extendedprice)',
                   'ix_lineitem_l_shipdate(+l_quantity_l_extendedprice_l_discount_l_tax_l_returnflag_l_linestatus)',
                   'ix_orders_o_custkey_o_orderkey',
                   'ix_supplier_s_nationkey_s_suppkey',
                   'ix_supplier_s_suppkey'),
                  111.9513235,
                  32.43638458),
                 (('ix_customer_c_custkey_c_nationkey',
                   'ix_customer_c_mktsegment_c_custkey',
                   'ix_lineitem_l_discount_l_shipdate_l_quantity(+l_extendedprice)',
                   'ix_lineitem_l_orderkey',
                   'ix_lineitem_l_partkey',
                   'ix_lineitem_l_suppkey_l_shipdate(+l_extendedprice_l_discount)',
                   'ix_nation_n_name_n_nationkey',
                   'ix_nation_n_nationkey(+n_name)',
                   'ix_orders_o_orderdate_o_orderkey(+o_orderpriority)',
                   'ix_orders_o_orderkey_o_custkey',
                   'ix_orders_o_orderpriority_o_custkey(+o_orderkey)',
                   'ix_part_p_partkey_p_brand',
                   'ix_region_r_regionkey_r_name'),
                  94.76245981,
                  48.03721737),
                 (('ix_customer_c_acctbal_c_nationkey_c_custkey',
                   'ix_lineitem_l_discount_l_shipdate_l_quantity(+l_extendedprice)',
                   'ix_lineitem_l_orderkey',
                   'ix_lineitem_l_partkey',
                   'ix_lineitem_l_suppkey_l_shipdate(+l_extendedprice_l_discount)',
                   'ix_orders_o_orderpriority_o_custkey(+o_orderkey)',
                   'ix_part_p_container_p_brand_p_partkey',
                   'ix_part_p_partkey(+p_type)',
                   'ix_part_p_size_p_brand_p_partkey(+p_type)',
                   'ix_part_p_type_p_size_p_partkey',
                   'ix_partsupp_ps_partkey_ps_suppkey(+ps_availqty)',
                   'ix_partsupp_ps_suppkey(+ps_partkey_ps_supplycost_ps_availqty)'),
                  93.93068943,
                  5.045773979),
                 (('ix_customer_c_nationkey_c_custkey',
                   'ix_lineitem_l_discount_l_shipdate_l_quantity(+l_extendedprice)',
                   'ix_lineitem_l_orderkey',
                   'ix_lineitem_l_partkey',
                   'ix_lineitem_l_suppkey_l_shipdate(+l_extendedprice_l_discount)',
                   'ix_nation_n_regionkey_n_nationkey',
                   'ix_orders_o_orderpriority_o_custkey(+o_orderkey)',
                   'ix_part_p_brand_p_partkey',
                   'ix_part_p_partkey(+p_type)',
                   'ix_partsupp_ps_suppkey(+ps_partkey_ps_supplycost_ps_availqty)',
                   'ix_supplier_s_nationkey_s_suppkey'),
                  93.81194479,
                  1.105222268),
                 (('ix_customer_c_nationkey_c_custkey',
                   'ix_lineitem_l_discount_l_shipdate_l_quantity(+l_extendedprice)',
                   'ix_lineitem_l_orderkey',
                   'ix_lineitem_l_partkey',
                   'ix_lineitem_l_suppkey_l_shipdate(+l_extendedprice_l_discount)',
                   'ix_nation_n_name_n_nationkey',
                   'ix_orders_o_orderpriority_o_custkey(+o_orderkey)',
                   'ix_orders_o_orderstatus_o_orderkey',
                   'ix_part_p_brand_p_partkey',
                   'ix_part_p_container_p_brand_p_partkey',
                   'ix_part_p_partkey(+p_type)',
                   'ix_region_r_name_r_regionkey'),
                  95.92950949,
                  3.39625662)]}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_standalone_session_matches_golden(name):
    assert standalone_decisions(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_fleet_tenant_matches_golden(name):
    for tenant, decisions in fleet_decisions(name).items():
        assert decisions == GOLDEN[name], tenant


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    import pprint

    pprint.pprint({name: standalone_decisions(name) for name in sorted(SCENARIOS)}, width=100)
